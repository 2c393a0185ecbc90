#!/usr/bin/env sh
# verify.sh — the repository's full verification gate, in dependency order:
# compile, vet, format, domain lint (benchlint), unit/integration tests, and
# a short-mode race pass over the concurrency-heavy packages. Run from
# anywhere inside the repository; every gate must pass.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...
# internal/core parks the arrival pacer with syscall.Nanosleep where the
# platform has it and falls back to the runtime timer elsewhere: vet the
# fallback's build-tag variant too.
GOOS=windows go vet ./internal/core/

echo "==> gofmt -l ."
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "==> benchlint -diff vs merge base (fast gate)"
# Lint only the packages changed since the merge base, plus their reverse
# dependencies — quick feedback before the expensive gates. Override the
# base with BENCHLINT_DIFF_BASE; the full tree is linted after the bench
# module's tests, before the race passes.
BASE=${BENCHLINT_DIFF_BASE:-origin/main}
if ! git rev-parse -q --verify "$BASE" >/dev/null 2>&1; then
    BASE=main
fi
if git rev-parse -q --verify "$BASE" >/dev/null 2>&1; then
    go run ./cmd/benchlint -diff "$BASE"
else
    echo "benchlint: no base ref found; skipping diff gate"
fi

echo "==> go test ./..."
go test ./...

echo "==> bench module tests (root go test does not descend into bench/)"
(cd bench && go vet ./... && go test ./...)

echo "==> benchlint ./... (full tree; internal/analysis lints itself here)"
go run ./cmd/benchlint ./...

echo "==> benchlint hotpath-alloc (batch hot-path allocation gate)"
# Explicit pass of the interprocedural allocation rule over the tree the
# batch loops live in, so a hot-path alloc regression names itself here
# instead of hiding in the full-tree run above.
go run ./cmd/benchlint -rule hotpath-alloc ./internal/...

echo "==> go test -race (short) core, api (one package at a time: the pacer tests time microseconds)"
go test -race -short -count=1 -p 1 ./internal/core/... ./internal/api/

echo "==> go test -race (short) stats/sqldb/wal/cluster/analysis"
go test -race -short -count=1 ./internal/stats/... ./internal/sqldb/... ./internal/wal/ ./internal/cluster/ ./internal/analysis/...

echo "==> cluster merge gate (-race): coordinator + 2 in-process workers"
# Short YCSB burst through the coordinator/worker wire: merged committed
# count must equal the sum of the per-worker totals exactly, and the merged
# digest (count, p50, p95, p99, max) must equal a single-collector oracle
# built by merging the workers' own histograms in-process — the merged feed
# is a stats.Collector running the same histogram code. Paced workers must
# merge their response time the same way.
go test -race -count=1 -run 'TestClusterGateMergedExactness|TestClusterMergedResponseTime' ./internal/cluster/

echo "==> observability smoke (/metrics exposition, SSE stream, error envelope)"
go test -count=1 -run 'TestMetricsEndpoint|TestStreamEndpoint|TestStreamWhilePaused|TestErrorEnvelope' ./internal/api/

echo "==> synthesis round trip (-race): capture -> profile -> scaled open-loop replay"
# Seeded end-to-end synthesis gate: capture a live YCSB run into a profile,
# amplify it x2 through the synthesizer, replay open loop, and require the
# replay's rate and per-type mixture to conform (rate +-20%, mix +-0.05).
# The API-level capture/profile/arrival resources race under the short pass
# above; this drives the whole loop through internal/synth.
go test -race -count=1 -run 'TestSynthRoundTrip|TestScheduleConformance' ./internal/benchmarks/synthetic/ ./internal/synth/

echo "==> isolation conformance & crash recovery (-race, fixed seed)"
# Deterministic differential-oracle harness for the three personalities plus
# both arms of the crash kill sweep. CONSISTENCY_SEED=<n> reseeds the run;
# add -consistency.long for the ~10x soak shape.
go test -race -count=1 ./internal/consistency/

echo "==> crash-recovery torture (-race): one kill sweep over the metered devices"
# The durability gate: one byte budget meters every durable write — the WAL
# of a RAM engine (MVCC, write-through and group commit), or WAL appends and
# heap page flushes together on the disk engine — and the sweep kills the
# stream at >= 15 points: evenly spaced, mid-WAL-frame and, on disk,
# mid-page-flush and mid-checkpoint tears. Every kill must recover to
# acked <= winners <= acked+uncertain; on disk, byte-exact rows, every page
# passing Verify and the recovered engine passing the conformance oracle.
# Named explicitly (it also runs in the package pass above) so a durability
# regression names itself here.
go test -race -count=1 -run 'Crash' ./internal/consistency/

echo "==> go test -race storage stress (striped store + online vacuum; group-commit writer count)"
# TestWriterCountBalances: the announced-writer count that lets group commit
# seal a complete batch must return to exactly zero, and never dip below it,
# under wait-die deaths, write conflicts, claims-only transactions,
# rollbacks and DDL on the RAM and disk engines.
# TestVacuumBacklogComplete: the vacuum visits only the rows commits updated
# or deleted, so after churn on golock, gomvcc, goserial and disk golock a
# drain must leave no row a full sweep could still reclaim or prune, and
# every table's limbo must empty once the horizon passes it.
# TestIndexKeysDoNotPinRecords: row versions are pointer-free records, and an
# index key stored in a tree must not alias one; after 1 000 updates per row
# and vacuum, the live heap holds less than two records per row.
go test -race -count=1 -run 'TestStorageStressConcurrent|TestWriterCountBalances|TestVacuumBacklogComplete|TestIndexKeysDoNotPinRecords' ./internal/sqldb/txn/ ./internal/sqldb/

echo "==> allocation smoke (prepared point read: objects; prepared 100-row scan: bytes; writing transaction: objects; row image: one allocation; B+tree point lookup: none; index keys: scannable heap per entry)"
# TestIndexScanHeap: index keys live in pointer-free node arenas, so 20 000
# rows under a 4-int primary key and a text index add at most 16 B of
# heap the garbage collector scans per index entry.
# sh has no pipefail: keep go test's exit status instead of grep's, so a
# failing budget fails the gate.
SMOKE=$(go test -count=1 -run 'TestPreparedPointReadAllocSmoke|TestPreparedRangeScanAllocSmoke|TestWritingTxnAllocSmoke|TestRowImageOneAlloc|TestTreeGetNoAlloc|TestIndexScanHeap' -v ./internal/sqldb/ ./internal/btree/) || { echo "$SMOKE"; exit 1; }
echo "$SMOKE" | grep -E 'allocs/op|B/op|row image|per index entry|PASS|FAIL'

echo "==> index-vs-scan differential (-race): indexed tables against unindexed twins"
# YCSB, TPC-C customer/order_line and TATP subscriber shapes on all three
# personalities, queried with parameters of every kind (NULL, floats,
# numeric and other text, integers beyond +-2^53): the index access paths
# must return exactly the rows, and for ORDER BY ... LIMIT the sequence,
# that a filtered sequential scan returns.
go test -race -count=1 -run 'TestIndexScanDifferential' ./internal/consistency/

echo "==> index key encoding fuzz (10 s): byte order is sqlval.CompareRows order"
# Keys whose columns each hold one kind plus NULL (integers at the tag edges
# and +-2^63, Bool, Time, +-0 and +-Inf floats, text with 0x00 and 0xFF
# bytes and prefixes of other text): the encoding's byte order must equal
# CompareRows, and a search value of any kind that KeyBound converts must
# order against the column exactly as under Compare.
go test -run X -fuzz FuzzIndexKey -fuzztime 10s -parallel 2 ./internal/sqlval/

echo "==> bench smoke (bench/run.sh --smoke: the one benchmark, end to end)"
# Tiny scales, one measured second, quarter rates: every workload runs
# untraced and traced through core.Manager and the REST control plane, the
# correctness checks run, and every metric BENCHMARK.json names must come
# out. It checks the plumbing, not the numbers.
bash bench/run.sh --smoke > /dev/null

echo "verify: all gates passed"
