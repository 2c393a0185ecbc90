package all

import (
	"testing"
	"time"

	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
)

// smokeTable pins the benchmark registry: every port the suite ships, with
// its procedure count. A new port must be added here (and an accidentally
// dropped registration fails loudly) so the smoke run always covers the full
// set.
var smokeTable = []struct {
	name  string
	procs int
}{
	{"auctionmark", 7},
	{"chbenchmark", 10},
	{"epinions", 9},
	{"jpab", 4},
	{"linkbench", 10},
	{"resourcestresser", 6},
	{"seats", 6},
	{"sibench", 2},
	{"smallbank", 6},
	{"synthetic", 6},
	{"tatp", 7},
	{"tpcc", 5},
	{"twitter", 5},
	{"voter", 1},
	{"wikipedia", 5},
	{"ycsb", 6},
}

// TestSmokeAllBenchmarks loads every port at tiny scale on the MVCC engine
// and drives a short open-loop run under a uniform mixture, so each
// procedure - including ones with tiny default weights - executes. The gate:
// zero procedure errors and a non-zero committed count for every procedure.
func TestSmokeAllBenchmarks(t *testing.T) {
	registered := map[string]bool{}
	for _, name := range core.BenchmarkNames() {
		registered[name] = true
	}
	if len(registered) != len(smokeTable) {
		t.Errorf("registry has %d benchmarks, smoke table has %d", len(registered), len(smokeTable))
	}
	for _, tc := range smokeTable {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if !registered[tc.name] {
				t.Fatalf("benchmark %q is not registered", tc.name)
			}
			b, err := core.NewBenchmark(tc.name, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(b.Procedures()); got != tc.procs {
				t.Fatalf("procedure count = %d, want %d", got, tc.procs)
			}
			db, err := dbdriver.Open("gomvcc")
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := core.Prepare(b, db, 42); err != nil {
				t.Fatal(err)
			}
			uniform := make([]float64, tc.procs)
			for i := range uniform {
				uniform[i] = 1
			}
			r := runUntilEveryType(t, b, db, 500*time.Millisecond, uniform)
			if r.errors > 0 {
				t.Fatalf("%d procedure errors (committed=%d aborted=%d)",
					r.errors, r.committed, r.aborted)
			}
			for i, n := range r.typeCounts {
				if n == 0 {
					t.Errorf("procedure %s committed zero transactions", r.typeNames[i])
				}
			}
		})
	}
}
