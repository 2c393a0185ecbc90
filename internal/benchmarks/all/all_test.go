package all

import (
	"context"
	"testing"
	"time"

	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
)

// tinyScale keeps load times negligible in tests.
const tinyScale = 0.02

// TestEveryBenchmarkLoadsAndRuns is the suite-wide integration test: every
// registered benchmark must create its schema, load at a small scale, and
// sustain a short open-loop run on the MVCC engine with zero errors.
func TestEveryBenchmarkLoadsAndRuns(t *testing.T) {
	for _, name := range core.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := core.NewBenchmark(name, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			db, err := dbdriver.Open("gomvcc")
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := core.Prepare(b, db, 42); err != nil {
				t.Fatal(err)
			}
			r := runUntilEveryType(t, b, db, 400*time.Millisecond, nil)
			if r.committed == 0 {
				t.Fatalf("no transactions committed (aborted=%d errors=%d)", r.aborted, r.errors)
			}
			if r.errors > 0 {
				t.Fatalf("%d errors during run (committed=%d)", r.errors, r.committed)
			}
			// Every declared transaction type must be exercised by the
			// default mixture (types with zero weight are exempt).
			for i, w := range b.DefaultMix() {
				if w > 0 && r.typeCounts[i] == 0 {
					t.Errorf("transaction type %s never ran", r.typeNames[i])
				}
			}
		})
	}
}

// maxRounds caps runUntilEveryType.
const maxRounds = 10

// roundsResult sums the collectors of runUntilEveryType's rounds.
type roundsResult struct {
	committed, aborted, errors int64
	typeNames                  []string
	typeCounts                 []int64
}

// runUntilEveryType drives b on db closed-loop with four terminals under
// mix (nil: the default mixture) in rounds of d, each a fresh Manager seeded
// 7, 8, ..., until every type with a positive weight has committed or
// maxRounds have run, and returns the sums over the rounds. One round
// samples every type on an idle host; under -race on two busy CPUs a
// benchmark with slow types (chbenchmark's analytic queries) may commit
// only a few dozen transactions in one, so whether a rare type ran would
// depend on the host's speed rather than on the benchmark.
func runUntilEveryType(t *testing.T, b core.Benchmark, db *dbdriver.DB, d time.Duration, mix []float64) roundsResult {
	t.Helper()
	weights := mix
	if weights == nil {
		weights = b.DefaultMix()
	}
	var r roundsResult
	for round := 0; round < maxRounds; round++ {
		m := core.NewManager(b, db, []core.Phase{{Duration: d, Rate: 0}},
			core.Options{Terminals: 4, Seed: 7 + int64(round)})
		m.SetMix(mix)
		if err := m.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		c := m.Collector()
		r.committed += c.Committed()
		r.aborted += c.Aborted()
		r.errors += c.Errors()
		snap := c.Snapshot()
		if r.typeCounts == nil {
			r.typeNames, r.typeCounts = snap.TypeNames, make([]int64, len(snap.TypeCounts))
		}
		missing := false
		for i, n := range snap.TypeCounts {
			r.typeCounts[i] += n
			missing = missing || (i < len(weights) && weights[i] > 0 && r.typeCounts[i] == 0)
		}
		if !missing || r.errors > 0 {
			return r
		}
	}
	return r
}

// TestEveryBenchmarkOnAllEngines runs each benchmark briefly on all three
// engine personalities, confirming the ports are engine-agnostic.
func TestEveryBenchmarkOnAllEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, engine := range []string{"goserial", "golock", "gomvcc"} {
		for _, name := range core.BenchmarkNames() {
			engine, name := engine, name
			t.Run(engine+"/"+name, func(t *testing.T) {
				t.Parallel()
				b, err := core.NewBenchmark(name, tinyScale)
				if err != nil {
					t.Fatal(err)
				}
				db, err := dbdriver.Open(engine)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if err := core.Prepare(b, db, 42); err != nil {
					t.Fatal(err)
				}
				m := core.NewManager(b, db, []core.Phase{{Duration: 250 * time.Millisecond, Rate: 0}},
					core.Options{Terminals: 2, Seed: 11})
				if err := m.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				c := m.Collector()
				if c.Committed() == 0 {
					t.Fatalf("no commits (aborted=%d errors=%d)", c.Aborted(), c.Errors())
				}
				if c.Errors() > 0 {
					t.Fatalf("%d errors", c.Errors())
				}
			})
		}
	}
}

// TestBenchmarkContracts checks structural invariants of every port without
// running it: the default mixture is parallel to the procedure list, weights
// are non-negative with positive total, names are unique and non-empty, and
// tiny scale factors never break construction.
func TestBenchmarkContracts(t *testing.T) {
	for _, name := range core.BenchmarkNames() {
		for _, scale := range []float64{0.001, 0.02, 1, 2.5} {
			b, err := core.NewBenchmark(name, scale)
			if err != nil {
				t.Fatalf("%s @%g: %v", name, scale, err)
			}
			procs := b.Procedures()
			mix := b.DefaultMix()
			if len(procs) == 0 {
				t.Errorf("%s: no procedures", name)
			}
			if len(mix) != len(procs) {
				t.Errorf("%s: mix has %d weights for %d procedures", name, len(mix), len(procs))
			}
			total := 0.0
			for i, w := range mix {
				if w < 0 {
					t.Errorf("%s: negative weight %v at %d", name, w, i)
				}
				total += w
			}
			if total <= 0 {
				t.Errorf("%s: zero total weight", name)
			}
			seen := map[string]bool{}
			for _, p := range procs {
				if p.Name == "" || p.Fn == nil {
					t.Errorf("%s: procedure with empty name or nil fn", name)
				}
				if seen[p.Name] {
					t.Errorf("%s: duplicate procedure name %q", name, p.Name)
				}
				seen[p.Name] = true
			}
		}
	}
}
