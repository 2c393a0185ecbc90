package stats

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// recordInto buckets one observation into a snapshot the same way the live
// histogram would.
func recordInto(hs *HistSnapshot, us int64) {
	if hs.Counts == nil {
		hs.Counts = make([]int64, NumBuckets)
	}
	hs.Counts[bucketFor(us)]++
	hs.SumUS += us
	if us > hs.MaxUS {
		hs.MaxUS = us
	}
}

// TestMergePercentilesMatchWholePopulation is the property the cluster merge
// rests on: because every snapshot shares the fixed log-bucket scheme,
// merging per-worker snapshots yields byte-identical bucket counts to
// recording the whole population into one snapshot — so merged percentiles
// equal whole-population percentiles exactly (and a fortiori within one
// bucket, the scheme's resolution).
func TestMergePercentilesMatchWholePopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		nParts := 2 + rng.Intn(6)
		parts := make([]HistSnapshot, nParts)
		var whole HistSnapshot
		n := 500 + rng.Intn(3000)
		for i := 0; i < n; i++ {
			// Log-uniform latencies from 1us to ~100s, the histogram's
			// working range.
			us := int64(1) << uint(rng.Intn(27))
			us += rng.Int63n(us)
			recordInto(&whole, us)
			recordInto(&parts[rng.Intn(nParts)], us)
		}
		var merged HistSnapshot
		for _, p := range parts {
			merged.Merge(p)
		}
		ws, ms := whole.Summary(), merged.Summary()
		if ws != ms {
			t.Fatalf("trial %d: merged summary %+v != whole-population summary %+v", trial, ms, ws)
		}
		for i := range whole.Counts {
			if whole.Counts[i] != merged.Counts[i] {
				t.Fatalf("trial %d: bucket %d: merged %d != whole %d", trial, i, merged.Counts[i], whole.Counts[i])
			}
		}
	}
}

func TestMergeEmptySnapshots(t *testing.T) {
	var a, b HistSnapshot
	a.Merge(b)
	if s := a.Summary(); s.Count != 0 || s.P95 != 0 || s.Max != 0 {
		t.Fatalf("empty merge produced non-zero summary: %+v", s)
	}

	var populated HistSnapshot
	recordInto(&populated, 1000)
	recordInto(&populated, 2000)
	before := populated.Summary()
	populated.Merge(HistSnapshot{}) // nil Counts: must be a no-op
	if after := populated.Summary(); after != before {
		t.Fatalf("merging an empty snapshot changed the summary: %+v -> %+v", before, after)
	}

	var zero HistSnapshot
	zero.Merge(populated) // zero-value target must grow and take the content
	if got := zero.Summary(); got != before {
		t.Fatalf("merge into zero-value target: got %+v, want %+v", got, before)
	}
}

// TestMergeMismatchedLengths covers snapshots whose Counts slices differ in
// length (sparse wire decodes allocate only up to the highest occupied
// bucket): the shorter side must grow, never truncate or panic.
func TestMergeMismatchedLengths(t *testing.T) {
	short := HistSnapshot{Counts: []int64{0, 3, 1}, SumUS: 5, MaxUS: 2}
	long := HistSnapshot{Counts: make([]int64, NumBuckets), SumUS: 40000, MaxUS: 20000}
	long.Counts[bucketFor(20000)] = 2

	a := short.Clone()
	a.Merge(long)
	if len(a.Counts) != NumBuckets {
		t.Fatalf("short target did not grow: len=%d", len(a.Counts))
	}
	b := long.Clone()
	b.Merge(short)
	if len(b.Counts) != NumBuckets {
		t.Fatalf("long target changed length: len=%d", len(b.Counts))
	}
	// Merge is commutative on content.
	sa, sb := a.Summary(), b.Summary()
	if sa != sb {
		t.Fatalf("merge not commutative: %+v vs %+v", sa, sb)
	}
	if sa.Count != 6 || sa.Max != 20000*time.Microsecond {
		t.Fatalf("unexpected merged summary: %+v", sa)
	}
}

// TestMergeDeltaEqualsDirectRecording is the property the cluster's merged
// feed rests on: a collector fed the Deltas of two source collectors holds
// exactly what one collector recording every outcome itself holds — the same
// windows, the same Snapshot (percentiles and response time included) and
// the same totals. Sources flush before the clock moves, as a worker's flush
// lands before the merged window it belongs to rotates.
func TestMergeDeltaEqualsDirectRecording(t *testing.T) {
	const windowDur = 10 * time.Millisecond
	base := time.Unix(1000, 0)
	cur := base
	newCollector := func() *Collector {
		c := NewCollectorWindow([]string{"x", "y", "z"}, windowDur)
		c.start = base
		c.now = func() time.Time { return cur }
		return c
	}
	direct, merged := newCollector(), newCollector()
	srcs := []*Collector{newCollector(), newCollector()}
	sent := make([]Delta, len(srcs))
	flush := func() {
		for i, src := range srcs {
			now := src.Cumulative()
			merged.Merge(now.Since(sent[i]))
			sent[i] = now
		}
	}

	rng := rand.New(rand.NewSource(7))
	statuses := []Status{StatusOK, StatusOK, StatusOK, StatusAborted, StatusRetry, StatusError}
	for op := 0; op < 2000; op++ {
		if rng.Intn(20) == 0 {
			flush()
			cur = cur.Add(time.Duration(rng.Intn(15)) * time.Millisecond)
		}
		w, ti, st := rng.Intn(len(srcs)), rng.Intn(3), statuses[rng.Intn(len(statuses))]
		lat := time.Duration(1+rng.Int63n(1<<uint(4+rng.Intn(16)))) * time.Microsecond
		if rng.Intn(2) == 0 {
			resp := lat + time.Duration(rng.Int63n(int64(lat)+1))
			direct.Recorder(w).RecordPaced(ti, st, lat, resp)
			srcs[w].Recorder(w).RecordPaced(ti, st, lat, resp)
		} else {
			direct.Recorder(w).Record(ti, st, lat)
			srcs[w].Recorder(w).Record(ti, st, lat)
		}
	}
	flush()
	cur = cur.Add(2 * windowDur)

	want, got := direct.Windows(), merged.Windows()
	if len(want) < 30 || !reflect.DeepEqual(got, want) {
		t.Fatalf("merged windows differ from direct recording (%d vs %d windows)", len(got), len(want))
	}
	ws, gs := direct.Snapshot(), merged.Snapshot()
	if ws.Response.Count == 0 || !reflect.DeepEqual(gs, ws) {
		t.Fatalf("merged snapshot %+v\n!= direct snapshot %+v", gs, ws)
	}
	if !reflect.DeepEqual(merged.Cumulative(), direct.Cumulative()) {
		t.Fatal("merged cumulative counters differ from direct recording")
	}
}

// TestMergeConcurrent merges from several goroutines while one records and
// one reads windows: no outcome is lost, double-counted or torn (run under
// -race).
func TestMergeConcurrent(t *testing.T) {
	c := NewCollectorWindow([]string{"x", "y"}, 5*time.Millisecond)
	one := Delta{Committed: 1, Types: []TypeDelta{{Index: 1, Lat: HistSnapshot{Counts: []int64{0, 0, 1}, SumUS: 2, MaxUS: 2}}}}
	const mergers, merges, records = 4, 500, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < mergers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < merges; i++ {
				c.Merge(one)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < records; i++ {
			c.Recorder(0).RecordPaced(0, StatusOK, time.Microsecond, 3*time.Microsecond)
		}
	}()
	read := make(chan struct{})
	go func() {
		defer close(read)
		for next := 0; ; {
			select {
			case <-stop:
				return
			default:
				next += len(c.WindowsSince(next))
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-read
	s := c.Snapshot()
	if s.Committed != mergers*merges+records || s.TypeCounts[1] != mergers*merges || s.Response.Count != records {
		t.Fatalf("snapshot after concurrent merges: %+v", s)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	var a HistSnapshot
	recordInto(&a, 500)
	c := a.Clone()
	c.Counts[bucketFor(500)] = 99
	c.SumUS = 1
	if a.Counts[bucketFor(500)] != 1 || a.SumUS != 500 {
		t.Fatalf("clone shares state with original: %+v", a)
	}
}
