#!/usr/bin/env sh
# bench.sh — runs the benchmark suites and writes the recorded-number files:
#
#   BENCH_hotpath.json  hot-path micro/macro benchmarks (ns/op, B/op,
#                       allocs/op) next to the pre-overhaul baseline
#                       (commit 18c7be1, same machine class)
#   BENCH_storage.json  storage-concurrency record: the -cpu worker sweep
#                       over the striped row store, the sustained-update p99
#                       vacuum ablation, and the fixed 4-terminal YCSB rows
#                       next to the pre-striping baseline (commit 27373b1)
#   BENCH_obsv.json     observability-overhead record: the fixed-terminal
#                       YCSB rows and the stats recording micros with the
#                       per-shard window histograms wired into the hot path,
#                       next to the pre-histogram baseline (commit fafef9a)
#   BENCH_disk.json     disk-residency record: the all-RAM golock YCSB row
#                       next to the disk-resident buffer-pool sweep
#                       (32/64/256 frames) with hit rates and the
#                       dataset-to-pool ratio
#
# Usage: scripts/bench.sh [hotpath.json] [storage.json] [obsv.json] [synth.json] [disk.json]
#        scripts/bench.sh --compare <baseline.json> [current.json] [--allow-missing]
#
# The --compare mode prints per-benchmark deltas for tps, ns_op, and
# allocs_op over the benchmarks the two records share, and exits nonzero
# when any metric regresses by more than 5%. A benchmark recorded in the
# baseline but absent from the current run also fails the gate (silently
# dropping a benchmark is how regressions hide); pass --allow-missing to
# downgrade that to a warning when the omission is intentional. With
# current.json omitted it reruns the engine macro benchmarks and compares
# the fresh numbers against the baseline record.
#
# Environment knobs:
#   BENCHTIME_MICRO  benchtime for the micro benchmarks (default 200000x)
#   BENCHTIME_MACRO  benchtime for the 500ms-per-iteration YCSB engine
#                    benchmarks (default 2x). Keep it >= 2x: at 1x the Go
#                    testing package reuses the sub-benchmark discovery run
#                    for the first -cpu column, which executes at the wrong
#                    GOMAXPROCS.
#   CPU_LIST         -cpu sweep for the scaling benchmarks (default
#                    1,2,4,8,16; the 16-wide column probes lock contention
#                    well past the physical core count)
#   COMPARE_BENCH    -bench regex for the fresh run in --compare mode
#                    (default BenchmarkEngineYCSB_; the disk gate passes
#                    BenchmarkEngineYCSBDisk_)
set -eu

cd "$(dirname "$0")/.."

render() {
    printf '%s\n' "$1" | awk '
    {
        name=$1; ns=""; tps=""; bytes=""; allocs="";
        workers=""; earlyp99=""; latep99=""; hitpct=""; ratio="";
        for (i = 2; i <= NF; i++) {
            if ($i == "ns/op") ns = $(i-1);
            else if ($i == "tps") tps = $(i-1);
            else if ($i == "B/op") bytes = $(i-1);
            else if ($i == "allocs/op") allocs = $(i-1);
            else if ($i == "workers") workers = $(i-1);
            else if ($i == "early-p99-us") earlyp99 = $(i-1);
            else if ($i == "late-p99-us") latep99 = $(i-1);
            else if ($i == "hit-pct") hitpct = $(i-1);
            else if ($i == "data-pool-ratio") ratio = $(i-1);
        }
        line = sprintf("    {\"name\": \"%s\", \"ns_op\": %s", name, ns);
        if (tps != "")      line = line sprintf(", \"tps\": %s", tps);
        if (workers != "")  line = line sprintf(", \"workers\": %s", workers);
        if (earlyp99 != "") line = line sprintf(", \"early_p99_us\": %s", earlyp99);
        if (latep99 != "")  line = line sprintf(", \"late_p99_us\": %s", latep99);
        if (hitpct != "")   line = line sprintf(", \"hit_pct\": %s", hitpct);
        if (ratio != "")    line = line sprintf(", \"data_pool_ratio\": %s", ratio);
        if (bytes != "")    line = line sprintf(", \"b_op\": %s", bytes);
        if (allocs != "")   line = line sprintf(", \"allocs_op\": %s", allocs);
        print line "},";
    }' | sed '$ s/},$/}/'
}

# compare_records <baseline.json> <current.json> [allow_missing] —
# per-benchmark deltas over the intersection of names, exit 1 on any >5%
# regression. A benchmark present in the baseline but absent from the current
# run fails the gate too — a silently dropped benchmark is how regressions
# hide — unless allow_missing=1 (the --allow-missing flag), which downgrades
# it to a warning. Parsing is line-oriented (each benchmark entry in the
# BENCH_*.json records is one object per line); when a name appears in both a
# "baseline" and a "current" section of the same file, the later entry wins.
# The fixed-duration engine benchmarks count a whole 500ms run in allocs_op,
# so when a row also reports tps the gate compares allocs_op/tps —
# proportional to allocations per transaction — instead of the raw per-run
# count.
compare_records() {
    awk -v base="$1" -v cur="$2" -v allow_missing="${3:-0}" '
    function load(file, tbl,    line, name) {
        while ((getline line < file) > 0) {
            if (match(line, /"name": "[^"]+"/) == 0) continue
            name = substr(line, RSTART + 9, RLENGTH - 10)
            if (file == cur && !(name in seen)) { seen[name] = 1; order[++n] = name }
            if (file == base && !(name in bseen)) { bseen[name] = 1; border[++bn] = name }
            if (match(line, /"tps": [0-9.]+/))       tbl[name, "tps"] = substr(line, RSTART + 7, RLENGTH - 7) + 0
            if (match(line, /"ns_op": [0-9.]+/))     tbl[name, "ns_op"] = substr(line, RSTART + 9, RLENGTH - 9) + 0
            if (match(line, /"allocs_op": [0-9.]+/)) tbl[name, "allocs_op"] = substr(line, RSTART + 13, RLENGTH - 13) + 0
        }
        close(file)
    }
    # dir: +1 when lower is better (ns_op, allocs), -1 when higher is (tps).
    function row(name, metric, b, c, dir,    d, flag) {
        compared++
        if (b == 0) d = (c > 0) ? 100 : 0
        else        d = (c - b) * 100.0 / b
        flag = ""
        if (dir * d > 5) { flag = "  REGRESSION"; fails++ }
        printf "%-52s %-10s %14.6g %14.6g %+8.1f%%%s\n", name, metric, b, c, d, flag
    }
    BEGIN {
        n = 0; bn = 0; fails = 0; compared = 0; missing = 0
        load(cur, curtbl)
        load(base, basetbl)
        printf "%-52s %-10s %14s %14s %9s\n", "benchmark", "metric", "baseline", "current", "delta"
        for (i = 1; i <= bn; i++) {
            name = border[i]
            if (name in seen) continue
            missing++
            printf "%-52s %-10s %14s %14s %9s  %s\n", name, "-", "present", "absent", "-",
                (allow_missing ? "MISSING (allowed)" : "MISSING")
        }
        for (i = 1; i <= n; i++) {
            name = order[i]
            if (((name, "tps") in basetbl) && ((name, "tps") in curtbl))
                row(name, "tps", basetbl[name, "tps"], curtbl[name, "tps"], -1)
            if (((name, "ns_op") in basetbl) && ((name, "ns_op") in curtbl))
                row(name, "ns_op", basetbl[name, "ns_op"], curtbl[name, "ns_op"], 1)
            if (((name, "allocs_op") in basetbl) && ((name, "allocs_op") in curtbl)) {
                if (((name, "tps") in basetbl) && ((name, "tps") in curtbl))
                    row(name, "allocs/tx", basetbl[name, "allocs_op"] / basetbl[name, "tps"],
                        curtbl[name, "allocs_op"] / curtbl[name, "tps"], 1)
                else
                    row(name, "allocs_op", basetbl[name, "allocs_op"], curtbl[name, "allocs_op"], 1)
            }
        }
        if (compared == 0) { print "compare: no overlapping benchmarks between records" > "/dev/stderr"; exit 2 }
        if (missing > 0 && !allow_missing) {
            printf "compare: %d baseline benchmark(s) missing from the current run (use --allow-missing to waive)\n",
                missing > "/dev/stderr"
            exit 1
        }
        if (fails > 0) { printf "compare: %d metric(s) regressed beyond 5%%\n", fails > "/dev/stderr"; exit 1 }
        if (missing > 0) printf "compare: %d baseline benchmark(s) missing from the current run (allowed)\n", missing
        printf "compare: %d metric(s) within the 5%% envelope\n", compared
    }'
}

if [ "${1:-}" = "--compare" ]; then
    shift
    ALLOW_MISSING=0
    BASELINE=""
    CURRENT=""
    for arg in "$@"; do
        case "$arg" in
        --allow-missing) ALLOW_MISSING=1 ;;
        *)
            if [ -z "$BASELINE" ]; then BASELINE=$arg
            elif [ -z "$CURRENT" ]; then CURRENT=$arg
            else
                echo "usage: scripts/bench.sh --compare <baseline.json> [current.json] [--allow-missing]" >&2
                exit 2
            fi
            ;;
        esac
    done
    if [ -z "$BASELINE" ]; then
        echo "usage: scripts/bench.sh --compare <baseline.json> [current.json] [--allow-missing]" >&2
        exit 2
    fi
    if [ -z "$CURRENT" ]; then
        echo "==> fresh engine macro run for compare (${COMPARE_BENCH:-BenchmarkEngineYCSB_})"
        # The records were written on one CPU, where go test prints bare
        # names; with more it appends -GOMAXPROCS, and no name would match.
        FRESH=$(go test -count=1 -run '^$' \
            -bench "${COMPARE_BENCH:-BenchmarkEngineYCSB_}" \
            -benchmem -benchtime "${BENCHTIME_MACRO:-2x}" . | grep '^Benchmark' |
            sed -E 's/^(Benchmark[^[:space:]]*)-[0-9]+([[:space:]])/\1\2/')
        CURRENT=$(mktemp)
        trap 'rm -f "$CURRENT"' EXIT
        {
            echo '{'
            echo '  "current": ['
            render "$FRESH"
            echo '  ]'
            echo '}'
        } > "$CURRENT"
    fi
    compare_records "$BASELINE" "$CURRENT" "$ALLOW_MISSING"
    exit 0
fi

OUT=${1:-BENCH_hotpath.json}
STORAGE_OUT=${2:-BENCH_storage.json}
OBSV_OUT=${3:-BENCH_obsv.json}
SYNTH_OUT=${4:-BENCH_synth.json}
DISK_OUT=${5:-BENCH_disk.json}

echo "==> micro benchmarks (sqldb prepared paths, stats recording)"
MICRO=$(go test -count=1 -run '^$' \
    -bench 'BenchmarkPrepared|BenchmarkExecPointRead|BenchmarkStatsRecord' \
    -benchmem -benchtime "${BENCHTIME_MICRO:-200000x}" \
    ./internal/sqldb/ ./internal/stats/ | grep '^Benchmark')

echo "==> macro benchmarks (YCSB engines, ablation)"
MACRO=$(go test -count=1 -run '^$' \
    -bench 'BenchmarkEngineYCSB_|BenchmarkAblation_Index' \
    -benchmem -benchtime "${BENCHTIME_MACRO:-2x}" . | grep '^Benchmark')

echo "==> storage scaling benchmarks (-cpu ${CPU_LIST:-1,2,4,8,16} worker sweep)"
SCALE=$(go test -count=1 -run '^$' \
    -bench 'BenchmarkEngineYCSBScale' \
    -benchtime "${BENCHTIME_MACRO:-2x}" -cpu "${CPU_LIST:-1,2,4,8,16}" . |
    grep '^Benchmark')

echo "==> sustained-update p99 (vacuum ablation)"
P99=$(go test -count=1 -run '^$' \
    -bench 'BenchmarkSustainedUpdateP99' -benchtime 1x . | grep '^Benchmark')

{
    cat <<'EOF'
{
  "note": "Hot-path benchmark record: 'baseline' is the pre-overhaul seed (commit 18c7be1, benchtime=2x, single-CPU container); 'current' is regenerated by scripts/bench.sh. EngineYCSB iterations are fixed 500ms runs, so allocs/op compares whole runs: read tps alongside it.",
  "baseline": {
    "commit": "18c7be1",
    "benchmarks": [
    {"name": "BenchmarkAblation_Index/pk-lookup", "ns_op": 18827, "b_op": 872, "allocs_op": 15},
    {"name": "BenchmarkAblation_Index/seqscan", "ns_op": 948256, "allocs_op": 13},
    {"name": "BenchmarkEngineYCSB_goserial", "tps": 1926, "allocs_op": 51967},
    {"name": "BenchmarkEngineYCSB_golock", "tps": 7716, "allocs_op": 324759},
    {"name": "BenchmarkEngineYCSB_gomvcc", "tps": 11008, "allocs_op": 219880}
    ]
  },
  "current": [
EOF
    render "$MICRO" | sed '$ s/}$/},/'
    render "$MACRO"
    cat <<'EOF'
  ]
}
EOF
} > "$OUT"

echo "wrote $OUT"

{
    cat <<'EOF'
{
  "note": "Storage concurrency record: 'baseline' is the pre-striping tree (commit 27373b1, global table RWMutex, stop-the-world vacuum) at 4 terminals. 'scaling' ties terminals to GOMAXPROCS so the -cpu sweep varies offered concurrency; the container has one physical CPU, so gains past 1 worker come from overlapping WAL group-commit waits and reduced lock convoying, not parallel execution. 'sustained_update_p99' is the online-vacuum ablation: p99 over the first vs last quarter of a 100k-op update/churn/scan run (WAL off).",
  "baseline": {
    "commit": "27373b1",
    "benchmarks": [
    {"name": "BenchmarkEngineYCSB_goserial", "tps": 2082, "workers": 4},
    {"name": "BenchmarkEngineYCSB_golock", "tps": 8522, "workers": 4},
    {"name": "BenchmarkEngineYCSB_gomvcc", "tps": 10896, "workers": 4}
    ]
  },
  "fixed_terminals": [
EOF
    render "$(printf '%s\n' "$MACRO" | grep 'EngineYCSB_')"
    cat <<'EOF'
  ],
  "scaling": [
EOF
    render "$SCALE"
    cat <<'EOF'
  ],
  "sustained_update_p99": [
EOF
    render "$P99"
    cat <<'EOF'
  ]
}
EOF
} > "$STORAGE_OUT"

echo "wrote $STORAGE_OUT"

{
    cat <<'EOF'
{
  "note": "Observability-overhead record: 'baseline' is the pre-histogram tree (commit fafef9a, shared cumulative histograms off the record path, no window percentiles) from BENCH_storage.json fixed_terminals and BENCH_hotpath.json micros. 'current' runs the same benchmarks with the per-shard per-type window histograms wired into every committed record. The acceptance gate is <=5% on EngineYCSB ns/op and allocs/op.",
  "baseline": {
    "commit": "fafef9a",
    "benchmarks": [
    {"name": "BenchmarkEngineYCSB_goserial", "ns_op": 506740747, "tps": 2562, "allocs_op": 37742},
    {"name": "BenchmarkEngineYCSB_golock", "ns_op": 508766198, "tps": 18422, "allocs_op": 215755},
    {"name": "BenchmarkEngineYCSB_gomvcc", "ns_op": 507813856, "tps": 37908, "allocs_op": 472451},
    {"name": "BenchmarkStatsRecordParallel", "ns_op": 161.0, "allocs_op": 0},
    {"name": "BenchmarkStatsRecordPoolAffine", "ns_op": 157.0, "allocs_op": 0}
    ]
  },
  "current": [
EOF
    render "$(printf '%s\n' "$MACRO" | grep 'EngineYCSB_')" | sed '$ s/}$/},/'
    render "$(printf '%s\n' "$MICRO" | grep 'StatsRecord')"
    cat <<'EOF'
  ]
}
EOF
} > "$OBSV_OUT"

echo "wrote $OBSV_OUT"

echo "==> disk-resident YCSB (buffer-pool sweep)"
# The golock personality again, disk-resident with a deliberately small
# buffer pool: the 32-frame row is the dataset-larger-than-RAM gate (the
# benchmark itself fails unless data >= 2x the pool), and the 32/64/256
# sweep is the hit-rate curve. The RAM rows ride along so the record reads
# as "what does disk residency cost at each pool budget".
DISK=$(go test -count=1 -run '^$' \
    -bench 'BenchmarkEngineYCSBDisk' \
    -benchmem -benchtime "${BENCHTIME_MACRO:-2x}" . | grep '^Benchmark')

{
    cat <<'EOF'
{
  "note": "Disk-residency record: 'ram' is the all-RAM golock YCSB row from the same bench.sh run; 'disk' re-registers golock with -data-dir semantics (4KiB slotted-page heap + ARIES WAL behind a clock-LRU buffer pool) at 32/64/256 frames. hit_pct is the buffer-pool hit rate, data_pool_ratio the final heap size over the pool budget (the pool32 row asserts >= 2x: a genuinely larger-than-RAM run). The verify.sh gate compares fresh disk rows against this file.",
  "ram": [
EOF
    render "$(printf '%s\n' "$MACRO" | grep 'EngineYCSB_golock')"
    cat <<'EOF'
  ],
  "disk": [
EOF
    render "$DISK"
    cat <<'EOF'
  ]
}
EOF
} > "$DISK_OUT"

echo "wrote $DISK_OUT"

echo "==> open-loop scheduler overhead (worker execute hot path)"
# Closed-loop vs open-loop worker execute: the paired benchmarks run the
# same no-op transaction through Manager.execute, the open-loop variant
# with a saturated Poisson arrival schedule installed so every iteration
# pays the gap lookup. The synthesis acceptance gate is <=5% ns/op; the
# effect is small, so each benchmark runs 5 times and the minimum ns/op
# is recorded (scheduler noise only ever adds time).
SYNTH=$(go test -count=5 -run '^$' \
    -bench 'BenchmarkExecuteClosedLoop|BenchmarkExecuteOpenLoop' \
    -benchmem -benchtime "${BENCHTIME_MICRO:-200000x}" ./internal/core/ |
    grep '^Benchmark' | awk '
    { if (!($1 in best) || $3 < best[$1]) { best[$1] = $3; line[$1] = $0 } }
    END { for (name in line) print line[name] }' | sort)

{
    cat <<'EOF'
{
  "note": "Open-loop arrival scheduling overhead record: both rows drive Manager.execute with a no-op transaction; ExecuteOpenLoop adds a saturated Poisson ArrivalSpec (base_rate 1e9, so the scheduler never sleeps) and the gate is open-loop ns/op <= 1.05x closed-loop ns/op on this worker hot path.",
  "current": [
EOF
    render "$SYNTH"
    cat <<'EOF'
  ]
}
EOF
} > "$SYNTH_OUT"

echo "wrote $SYNTH_OUT"

printf '%s\n' "$SYNTH" | awk '
    /BenchmarkExecuteClosedLoop/ { closed = $3 }
    /BenchmarkExecuteOpenLoop/   { open = $3 }
    END {
        if (closed == 0 || open == 0) { print "synth overhead: benchmarks missing" > "/dev/stderr"; exit 2 }
        pct = (open - closed) * 100.0 / closed
        printf "open-loop overhead: closed %.1f ns/op, open %.1f ns/op (%+.1f%%)\n", closed, open, pct
        if (pct > 5) { print "synth overhead: open-loop exceeds the 5% hot-path envelope" > "/dev/stderr"; exit 1 }
    }'
