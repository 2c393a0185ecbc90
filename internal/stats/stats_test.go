package stats

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	mean := h.Mean()
	if mean < 45*time.Millisecond || mean > 56*time.Millisecond {
		t.Fatalf("mean = %v", mean)
	}
	p50 := h.Percentile(50)
	if p50 < 40*time.Millisecond || p50 > 60*time.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 90*time.Millisecond || p99 > 105*time.Millisecond {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Max() < 99*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if h.Mean() != 0 || h.Percentile(99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram non-zero")
	}
	s := h.Snapshot()
	if s.Count != 0 {
		t.Fatal("snapshot count")
	}
}

// Property: bucketFor is monotone and bucketMid stays within ~2x relative
// error of representative values.
func TestBucketProperty(t *testing.T) {
	prop := func(raw uint32) bool {
		us := int64(raw)
		b := bucketFor(us)
		if b < 0 || b >= nBuckets {
			return false
		}
		if us > 0 && bucketFor(us-1) > b {
			return false // monotonicity
		}
		mid := bucketMid(b)
		if us >= subBuckets {
			// Relative error bound for log buckets.
			if mid > us || float64(us-mid) > float64(us)*0.05 {
				return false
			}
		} else if mid != us {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Record(time.Duration(i%1000) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestCollectorWindows(t *testing.T) {
	c := NewCollectorWindow([]string{"read", "write"}, 10*time.Millisecond)
	for i := 0; i < 50; i++ {
		c.Record(i%2, StatusOK, time.Millisecond)
	}
	c.Record(0, StatusAborted, 0)
	c.Record(0, StatusError, 0)
	c.Record(0, StatusRetry, 0)
	time.Sleep(25 * time.Millisecond)
	ws := c.Windows()
	if len(ws) < 2 {
		t.Fatalf("windows = %d", len(ws))
	}
	var committed int64
	for _, w := range ws {
		committed += w.Committed
	}
	if committed != 50 {
		t.Fatalf("windowed committed = %d", committed)
	}
	if c.Committed() != 50 || c.Aborted() != 1 || c.Errors() != 1 || c.Retries() != 1 {
		t.Fatalf("totals: %d %d %d %d", c.Committed(), c.Aborted(), c.Errors(), c.Retries())
	}
}

func TestCollectorPerType(t *testing.T) {
	c := NewCollector([]string{"a", "b"})
	c.Record(0, StatusOK, 10*time.Millisecond)
	c.Record(0, StatusOK, 20*time.Millisecond)
	c.Record(1, StatusOK, 100*time.Millisecond)
	if c.TypeHistogram(0).Count() != 2 || c.TypeHistogram(1).Count() != 1 {
		t.Fatal("per-type counts")
	}
	m := c.TypeHistogram(0).Mean()
	if m < 14*time.Millisecond || m > 16*time.Millisecond {
		t.Fatalf("type mean = %v", m)
	}
}

func TestSnapshot(t *testing.T) {
	c := NewCollectorWindow([]string{"t"}, 10*time.Millisecond)
	for i := 0; i < 30; i++ {
		c.Record(0, StatusOK, 2*time.Millisecond)
		time.Sleep(time.Millisecond)
	}
	s := c.Snapshot()
	if s.TPS <= 0 {
		t.Fatalf("snapshot TPS = %v", s.TPS)
	}
	if s.Committed != 30 {
		t.Fatalf("committed = %d", s.Committed)
	}
	if len(s.TypeLatency) != 1 || s.TypeLatency[0] <= 0 {
		t.Fatalf("type latency = %v", s.TypeLatency)
	}
}

func TestWindowGapsAreMaterialized(t *testing.T) {
	c := NewCollectorWindow([]string{"t"}, 5*time.Millisecond)
	c.Record(0, StatusOK, time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	c.Record(0, StatusOK, time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	ws := c.Windows()
	if len(ws) < 5 {
		t.Fatalf("expected gap windows, got %d", len(ws))
	}
	empty := 0
	for _, w := range ws {
		if w.Committed == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("no empty gap windows recorded")
	}
	// Window indexes must be consecutive.
	for i := 1; i < len(ws); i++ {
		if ws[i].Index != ws[i-1].Index+1 {
			t.Fatalf("non-consecutive windows: %d then %d", ws[i-1].Index, ws[i].Index)
		}
	}
}

func TestWindowLatencySummaries(t *testing.T) {
	c := NewCollectorWindow([]string{"fast", "slow"}, 20*time.Millisecond)
	// First window: type 0 at 1..100ms uniform, type 1 at a constant 500ms.
	for i := 1; i <= 100; i++ {
		c.Record(0, StatusOK, time.Duration(i)*time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		c.Record(1, StatusOK, 500*time.Millisecond)
	}
	time.Sleep(25 * time.Millisecond)
	// Second window: type 0 at a constant 2ms.
	for i := 0; i < 50; i++ {
		c.Record(0, StatusOK, 2*time.Millisecond)
	}
	time.Sleep(25 * time.Millisecond)
	ws := c.Windows()
	if len(ws) < 2 {
		t.Fatalf("windows = %d", len(ws))
	}
	w0 := ws[0]
	if w0.TypeLat[0].Count != 100 || w0.TypeLat[1].Count != 10 {
		t.Fatalf("w0 counts: %+v", w0.TypeLat)
	}
	if p50 := w0.TypeLat[0].P50; p50 < 40*time.Millisecond || p50 > 60*time.Millisecond {
		t.Fatalf("w0 fast p50 = %v", p50)
	}
	if p99 := w0.TypeLat[0].P99; p99 < 90*time.Millisecond || p99 > 105*time.Millisecond {
		t.Fatalf("w0 fast p99 = %v", p99)
	}
	if p50 := w0.TypeLat[1].P50; p50 < 480*time.Millisecond || p50 > 520*time.Millisecond {
		t.Fatalf("w0 slow p50 = %v", p50)
	}
	// The all-types digest of the first window covers both populations.
	if w0.Lat.Count != 110 {
		t.Fatalf("w0 all count = %d", w0.Lat.Count)
	}
	if w0.Lat.Max < 480*time.Millisecond {
		t.Fatalf("w0 all max = %v", w0.Lat.Max)
	}
	// The second window's digest is a pure delta: the slow 500ms samples of
	// window 0 must not bleed into it.
	var w1 *Window
	for i := range ws[1:] {
		if ws[i+1].TypeLat[0].Count > 0 {
			w1 = &ws[i+1]
			break
		}
	}
	if w1 == nil {
		t.Fatal("no second window with records")
	}
	if w1.TypeLat[0].Count != 50 || w1.TypeLat[1].Count != 0 {
		t.Fatalf("w1 counts: %+v", w1.TypeLat)
	}
	if p99 := w1.TypeLat[0].P99; p99 > 4*time.Millisecond {
		t.Fatalf("w1 p99 bled across windows: %v", p99)
	}
}

func TestCumulativeSummaries(t *testing.T) {
	c := NewCollector([]string{"a", "b"})
	for i := 1; i <= 100; i++ {
		c.Record(0, StatusOK, time.Duration(i)*time.Millisecond)
	}
	c.Record(1, StatusOK, time.Second)
	ts := c.TypeSummary(0)
	if ts.Count != 100 {
		t.Fatalf("count = %d", ts.Count)
	}
	if ts.P95 < 90*time.Millisecond || ts.P95 > 100*time.Millisecond {
		t.Fatalf("p95 = %v", ts.P95)
	}
	if ts.Max < 99*time.Millisecond {
		t.Fatalf("max = %v", ts.Max)
	}
	// The merged Histogram accessor must agree with the summary.
	hs := c.TypeHistogram(0).Snapshot()
	if hs.Count != ts.Count || hs.P50 != ts.P50 || hs.P99 != ts.P99 || hs.Max != ts.Max {
		t.Fatalf("histogram/summary mismatch: %+v vs %+v", hs, ts)
	}
	g := c.GlobalSummary()
	if g.Count != 101 || g.Max < time.Second {
		t.Fatalf("global = %+v", g)
	}
}

func TestSubscribeSignalsOnRotation(t *testing.T) {
	c := NewCollectorWindow([]string{"t"}, 5*time.Millisecond)
	ch, cancel := c.Subscribe()
	defer cancel()
	c.Record(0, StatusOK, time.Millisecond)
	time.Sleep(12 * time.Millisecond)
	c.Record(0, StatusOK, time.Millisecond) // first record of a new window rotates
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("no rotation signal")
	}
	// After cancel, rotation must not signal (and must not block).
	cancel()
	time.Sleep(12 * time.Millisecond)
	c.Windows() // force another rotation
	select {
	case <-ch:
		t.Fatal("signal after cancel")
	default:
	}
}

func TestWindowsSince(t *testing.T) {
	c := NewCollectorWindow([]string{"t"}, 5*time.Millisecond)
	c.Record(0, StatusOK, time.Millisecond)
	time.Sleep(22 * time.Millisecond)
	all := c.Windows()
	if len(all) < 3 {
		t.Fatalf("windows = %d", len(all))
	}
	// More windows may complete between the two calls, so require at
	// least the ones Windows() saw rather than an exact count.
	tail := c.WindowsSince(2)
	if len(tail) < len(all)-2 || tail[0].Index != 2 {
		t.Fatalf("since(2): len=%d first=%d (all=%d)", len(tail), tail[0].Index, len(all))
	}
	if got := c.WindowsSince(1 << 30); got != nil {
		t.Fatalf("past-end = %v", got)
	}
}

func TestAggregateLE(t *testing.T) {
	h := &Histogram{}
	h.Record(100 * time.Microsecond)
	h.Record(2 * time.Millisecond)
	h.Record(40 * time.Millisecond)
	h.Record(30 * time.Second)
	hs := HistSnapshot{Counts: make([]int64, nBuckets)}
	for i := range hs.Counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	le := AggregateLE(hs.Counts, DefaultLEBoundsUS)
	if len(le) != len(DefaultLEBoundsUS)+1 {
		t.Fatalf("le len = %d", len(le))
	}
	for i := 1; i < len(le); i++ {
		if le[i] < le[i-1] {
			t.Fatalf("non-monotonic cumulative buckets: %v", le)
		}
	}
	if le[len(le)-1] != 4 {
		t.Fatalf("+Inf bucket = %d", le[len(le)-1])
	}
	// 100us lands at or below the 250us bound.
	if le[0] != 1 {
		t.Fatalf("le[250us] = %d", le[0])
	}
	// 30s exceeds every finite bound: only +Inf counts it.
	if le[len(le)-2] != 3 {
		t.Fatalf("le[10s] = %d", le[len(le)-2])
	}
}

func TestHistSnapshotSummaryEmpty(t *testing.T) {
	var hs HistSnapshot
	if s := hs.Summary(); s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot summary: %+v", s)
	}
}

func TestLatencySummaryString(t *testing.T) {
	h := &Histogram{}
	h.Record(time.Millisecond)
	if s := h.Snapshot().String(); s == "" {
		t.Fatal("empty summary string")
	}
}

// TestResponseTime: RecordPaced keeps response time (due to end) beside
// service time, per type, cumulatively and per window; Record leaves it
// untouched, so an unpaced run reports none.
func TestResponseTime(t *testing.T) {
	c := NewCollectorWindow([]string{"a", "b"}, 20*time.Millisecond)
	rec := c.Recorder(0)
	for i := 0; i < 100; i++ {
		rec.RecordPaced(0, StatusOK, 2*time.Millisecond, 10*time.Millisecond)
		rec.Record(1, StatusOK, 3*time.Millisecond) // closed loop: no arrival, no response time
	}
	rec.RecordPaced(0, StatusAborted, time.Millisecond, 5*time.Millisecond) // only commits are timed
	time.Sleep(25 * time.Millisecond)
	for i := 0; i < 40; i++ {
		rec.RecordPaced(1, StatusOK, 3*time.Millisecond, 50*time.Millisecond)
	}
	time.Sleep(25 * time.Millisecond)

	s := c.Snapshot()
	near := func(got, want time.Duration) bool { return got >= want*95/100 && got <= want*105/100 }
	if s.Latency.Count != 240 || s.Response.Count != 140 {
		t.Fatalf("counts: %d latencies, %d responses", s.Latency.Count, s.Response.Count)
	}
	if s.TypeResp[0].Count != 100 || !near(s.TypeResp[0].P50, 10*time.Millisecond) {
		t.Fatalf("type a response = %v", s.TypeResp[0])
	}
	if s.TypeResp[1].Count != 40 || !near(s.TypeResp[1].P50, 50*time.Millisecond) {
		t.Fatalf("type b response = %v", s.TypeResp[1])
	}
	if !near(s.TypeLat[0].P50, 2*time.Millisecond) || !near(s.Response.Max, 50*time.Millisecond) {
		t.Fatalf("service p50 %v, response max %v", s.TypeLat[0].P50, s.Response.Max)
	}
	if got := c.GlobalResponseSnapshot().Summary(); got != s.Response {
		t.Fatalf("GlobalResponseSnapshot %v != snapshot %v", got, s.Response)
	}
	// Windows hold deltas: the first saw only the 10 ms responses, the one
	// with the second batch only the 50 ms ones.
	ws := c.Windows()
	if ws[0].Resp.Count != 100 || !near(ws[0].Resp.P99, 10*time.Millisecond) {
		t.Fatalf("window 0 response = %v", ws[0].Resp)
	}
	for _, w := range ws[1:] {
		if w.Resp.Count > 0 && (w.Resp.Count != 40 || !near(w.Resp.P50, 50*time.Millisecond)) {
			t.Fatalf("window %d response = %v", w.Index, w.Resp)
		}
	}
}
