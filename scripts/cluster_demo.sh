#!/usr/bin/env sh
# cluster_demo.sh — scale-out load generation demo: one coordinator, one
# engine-server process holding the shared DBMS, and N worker agents driving
# it over the binary engine wire (topology mirrors configs/cluster_example.json).
#
# The engine runs with -commit-delay so every write pays a durable-commit
# round trip (synchronous replication / fsync class latency). A single
# closed-loop worker is then latency-bound and leaves the engine mostly
# idle — the regime the coordinator/worker split exists for. The demo:
#
#   phase 1  one worker, measure aggregate tps (latency-bound baseline)
#   phase 2  WORKERS workers, measure aggregate tps; the merged committed
#            count from GET /api/v1/cluster must equal the sum of the
#            per-worker totals exactly, and aggregate tps must reach
#            MIN_SCALE x the baseline
#   phase 3  WORKERS workers under a rate target; SIGKILL one mid-run and
#            assert the coordinator detaches it and re-spreads the rate
#            share to the survivors without stalling the merged SSE feed
#
# The phase lines print the measured tps and ratio; the MIN_SCALE assertion
# is the gate.
#
# Environment knobs:
#   DUR           seconds per measured phase (default 6)
#   WORKERS       worker-agent count for the scale-out phases (default 4)
#   TERMINALS     terminals per worker (default 1: closed loop per agent)
#   DB            engine personality (default gomvcc)
#   SCALE         benchmark scale factor (default 0.2)
#   COMMIT_DELAY  emulated durable-commit latency (default 8ms)
#   MIN_SCALE     required aggregate speedup of phase 2 over phase 1
#                 (default 3.5)
set -eu

cd "$(dirname "$0")/.."

DUR=${DUR:-6}
WORKERS=${WORKERS:-4}
TERMINALS=${TERMINALS:-1}
DB=${DB:-gomvcc}
SCALE=${SCALE:-0.2}
COMMIT_DELAY=${COMMIT_DELAY:-8ms}
MIN_SCALE=${MIN_SCALE:-3.5}

WIRE=127.0.0.1:9191
HTTP=127.0.0.1:8091
ENGINE=127.0.0.1:9292
API="http://$HTTP/api/v1/cluster"

TMP=$(mktemp -d)
BIN="$TMP/benchpress"
PIDS=""
cleanup() {
    # shellcheck disable=SC2086
    [ -n "$PIDS" ] && kill $PIDS 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() { echo "cluster_demo: FAIL: $*" >&2; exit 1; }

# json_field <file-or-"-"> <key> — last occurrence wins, which for the merged
# status object means the cluster-level counter, not a per-worker one.
json_field() {
    grep -o "\"$2\":[0-9.]*" "$1" | tail -1 | cut -d: -f2
}

echo "==> building benchpress"
go build -o "$BIN" ./cmd/benchpress

echo "==> starting engine server ($DB, ycsb scale $SCALE, commit delay $COMMIT_DELAY)"
"$BIN" --engine-server "$ENGINE" -bench ycsb -db "$DB" -scale "$SCALE" \
    -commit-delay "$COMMIT_DELAY" >"$TMP/engine.log" 2>&1 &
PIDS="$PIDS $!"

echo "==> starting coordinator (wire $WIRE, api http://$HTTP)"
"$BIN" --coordinator "$WIRE" -http "$HTTP" >"$TMP/coord.log" 2>&1 &
PIDS="$PIDS $!"

i=0
until grep -q 'serving engine sessions' "$TMP/engine.log" 2>/dev/null; do
    i=$((i + 1)); [ "$i" -gt 150 ] && fail "engine server did not come up"
    sleep 0.2
done
i=0
until curl -fsS "$API" >/dev/null 2>&1; do
    i=$((i + 1)); [ "$i" -gt 50 ] && fail "coordinator API did not come up"
    sleep 0.2
done

# Update-only mixture: every transaction pays the commit delay, so the
# baseline is honestly latency-bound rather than read-CPU-bound.
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"weights":[0,0,0,1,0,0]}' "$API/mixture" >/dev/null

run_workers() { # run_workers <count> <seconds> <logprefix> -> pids in $WPIDS
    n=$1; secs=$2; prefix=$3
    WPIDS=""
    k=1
    while [ "$k" -le "$n" ]; do
        "$BIN" --worker "http://$HTTP" -bench ycsb -db "remote:$ENGINE" \
            -terminals "$TERMINALS" -duration "$secs" \
            >"$TMP/$prefix$k.log" 2>&1 &
        WPIDS="$WPIDS $!"
        k=$((k + 1))
    done
}

sum_committed() { # sum_committed <logprefix> <count>
    total=0; k=1
    while [ "$k" -le "$2" ]; do
        c=$(grep -o 'committed=[0-9]*' "$TMP/$1$k.log" | cut -d= -f2)
        [ -n "$c" ] || fail "worker log $1$k.log has no final total (see $TMP)"
        total=$((total + c))
        k=$((k + 1))
    done
    echo "$total"
}

merged_committed() {
    curl -fsS "$API" >"$TMP/status.json"
    json_field "$TMP/status.json" committed
}

echo "==> phase 1: baseline, 1 worker x $TERMINALS terminal(s), ${DUR}s"
before=$(merged_committed)
run_workers 1 "$DUR" base
# shellcheck disable=SC2086
wait $WPIDS
base_committed=$(sum_committed base 1)
base_tps=$(awk "BEGIN{printf \"%.1f\", $base_committed/$DUR}")
echo "    baseline: $base_committed committed ($base_tps tps)"

echo "==> phase 2: scale-out, $WORKERS workers, ${DUR}s"
before=$(merged_committed)
run_workers "$WORKERS" "$DUR" scale
# shellcheck disable=SC2086
wait $WPIDS
agg_committed=$(sum_committed scale "$WORKERS")
after=$(merged_committed)
merged_delta=$((after - before))
[ "$merged_delta" -eq "$agg_committed" ] ||
    fail "merged committed delta $merged_delta != sum of worker totals $agg_committed"
drift=$(json_field "$TMP/status.json" drift_events)
[ "$drift" = "0" ] || fail "coordinator recorded $drift stats drift events"
agg_tps=$(awk "BEGIN{printf \"%.1f\", $agg_committed/$DUR}")
ratio=$(awk "BEGIN{printf \"%.2f\", $agg_committed/$base_committed}")
echo "    scale-out: $agg_committed committed ($agg_tps tps), ${ratio}x baseline, merged == sum exactly"
awk "BEGIN{exit !($ratio >= $MIN_SCALE)}" ||
    fail "aggregate speedup ${ratio}x below required ${MIN_SCALE}x"

echo "==> phase 3: kill one of $WORKERS workers mid-run (rate 200 tps spread)"
curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"tps":200}' "$API/rate" >/dev/null
kill_secs=$((DUR + 4))
run_workers "$WORKERS" "$kill_secs" kill
victim=${WPIDS# }
victim=${victim%% *}
survivors=$((WORKERS - 1))
want_share=$(awk "BEGIN{printf \"%.2f\", 200/$survivors - 0.01}")
# Merged SSE feed, captured across the kill.
curl -sN "$API/stream" >"$TMP/sse.log" 2>/dev/null &
sse_pid=$!
PIDS="$PIDS $sse_pid"
sleep 3
kill -9 "$victim"
sse_at_kill=$(grep -c '^event: window' "$TMP/sse.log" || true)
# The coordinator must detach the dead worker and re-spread its rate share
# within one heartbeat (500ms default); allow 2s of polling slack.
i=0
while :; do
    share=$(curl -fsS "$API/rate" | grep -o '"share":[0-9.]*' | cut -d: -f2)
    awk "BEGIN{exit !($share >= $want_share)}" && break
    i=$((i + 1)); [ "$i" -gt 20 ] && fail "rate share $share never re-spread to >= $want_share"
    sleep 0.1
done
echo "    share re-spread to $share tps across $survivors survivors"
# shellcheck disable=SC2086
wait $(echo "$WPIDS" | sed "s/\\<$victim\\> *//") 2>/dev/null || true
sse_at_end=$(grep -c '^event: window' "$TMP/sse.log" || true)
[ "$sse_at_end" -gt "$sse_at_kill" ] ||
    fail "merged SSE feed stalled after worker kill ($sse_at_kill -> $sse_at_end windows)"
kill "$sse_pid" 2>/dev/null || true
echo "    merged SSE stayed live: $sse_at_kill windows at kill, $sse_at_end at end"

echo "cluster_demo: PASS (${ratio}x scale-out, exact merge, live SSE through worker kill)"
