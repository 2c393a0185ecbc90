package stats

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Status classifies one transaction attempt's outcome.
type Status uint8

const (
	// StatusOK is a committed transaction.
	StatusOK Status = iota
	// StatusAborted is a concurrency abort (deadlock/write conflict) that
	// exhausted its retries or was not retried.
	StatusAborted
	// StatusRetry is one retried attempt (the eventual outcome is recorded
	// separately).
	StatusRetry
	// StatusError is a non-concurrency error.
	StatusError
)

// Window is one finalized throughput window.
type Window struct {
	// Index is the window's ordinal since collection start.
	Index int
	// Start is the offset of the window start since collection start.
	Start time.Duration
	// Committed, Aborted, Errors, Retries count outcomes in the window.
	Committed int64
	Aborted   int64
	Errors    int64
	Retries   int64
	// PerType counts committed transactions per type.
	PerType []int64
	// SumLatencyUS sums committed-transaction latencies (microseconds).
	SumLatencyUS int64
	// TypeLat digests committed latency per type within the window
	// (parallel to the collector's type list), merged from the per-worker
	// shard histograms at rotation.
	TypeLat []LatencySummary
	// Lat digests committed latency across all types within the window.
	Lat LatencySummary
	// Resp digests the response time (due to end: queue wait plus service)
	// of the window's committed paced transactions across all types; zero
	// in a window without paced arrivals.
	Resp LatencySummary
}

// TPS returns the committed throughput of the window given its duration.
func (w Window) TPS(windowDur time.Duration) float64 {
	return float64(w.Committed) / windowDur.Seconds()
}

// AvgLatency returns the mean committed latency in the window.
func (w Window) AvgLatency() time.Duration {
	if w.Committed == 0 {
		return 0
	}
	return time.Duration(w.SumLatencyUS/w.Committed) * time.Microsecond
}

// nshards is the number of recording shards shared by all collectors: the
// GOMAXPROCS at package init rounded up to a power of two (so shard picking
// is a mask), with a floor that keeps worker ids spread even on small boxes.
var nshards = func() int {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}()

// latHist is one fixed-log-bucket histogram with exact sum and max, all
// monotonic.
type latHist struct {
	counts []atomic.Int64 // nBuckets, sliced from the shard's backing array
	sum    atomic.Int64
	max    atomic.Int64
}

// record adds one observation.
func (l *latHist) record(us int64) {
	l.counts[bucketFor(us)].Add(1)
	l.sum.Add(us)
	for {
		cur := l.max.Load()
		if us <= cur || l.max.CompareAndSwap(cur, us) {
			return
		}
	}
}

// addTo folds the histogram into hs.
func (l *latHist) addTo(hs *HistSnapshot) {
	for b := range hs.Counts {
		hs.Counts[b] += l.counts[b].Load()
	}
	hs.SumUS += l.sum.Load()
	if m := l.max.Load(); m > hs.MaxUS {
		hs.MaxUS = m
	}
}

// latCell is one shard's latency record for one transaction type: service
// time (start to end) of every committed transaction, and response time
// (due to end) of the paced ones. A worker records into its own shard's
// cells, so the adds never contend and take no lock; window rotation and
// the cumulative accessors merge cells across shards.
type latCell struct {
	latHist
	resp latHist
}

// shard is one recording cell. Its counters are monotonic totals, never
// reset: window rotation attributes deltas between snapshots, so a Record
// racing a rotation lands in exactly one window (this one or the next) and is
// never lost or double-counted. The struct is padded so that neighbouring
// shards in the collector's array do not share a cache line.
type shard struct {
	committed atomic.Int64
	aborted   atomic.Int64
	errors    atomic.Int64
	retries   atomic.Int64
	sumLatUS  atomic.Int64
	// perType counts committed transactions per type (monotonic). The
	// backing array is over-allocated by a cache line's worth of slots so
	// distinct shards' arrays never abut.
	perType []atomic.Int64
	// lat holds this shard's per-type latency histograms. The bucket arrays
	// of one shard share one backing allocation; distinct shards allocate
	// separately, so cross-shard false sharing cannot occur.
	lat []latCell
	_   [64]byte // pad to keep adjacent shards on separate lines
}

// totals is one aggregated snapshot of every shard counter.
type totals struct {
	committed int64
	aborted   int64
	errors    int64
	retries   int64
	sumLatUS  int64
	perType   []int64
}

// Collector aggregates worker observations for one workload. Recording is
// lock-free: each worker adds to its own padded shard with atomics,
// including the fixed-bucket latency histogram adds. The mutex only guards
// window rotation (advancing the live window index and snapshotting shard
// totals into finalized Windows), which happens at window granularity, not
// per record.
type Collector struct {
	start     time.Time
	windowDur time.Duration
	types     []string
	now       func() time.Time // injectable clock for deterministic tests

	shards []shard

	// liveIdx mirrors the mutex-guarded rotation state so the Record fast
	// path can detect an elapsed window with one atomic load.
	liveIdx atomic.Int64

	mu      sync.Mutex
	base    totals // shard totals at the start of the live window
	history []Window

	// Histogram rotation state, guarded by mu. histBase holds per-type
	// cumulative bucket counts at the start of the live window; latSumBase
	// the matching per-type latency sums. curBuf/deltaBuf/allBuf are
	// reusable scratch so rotation allocates little beyond the per-window
	// summaries.
	histBase   [][]int64
	latSumBase []int64
	curBuf     []int64
	deltaBuf   []int64
	allBuf     []int64
	// respBase is the all-types cumulative response histogram at the start
	// of the live window (windows digest response time across types only).
	respBase HistSnapshot

	// subs are window-completion listeners (SSE streams). Signaled with a
	// non-blocking send after rotation appends windows, so a slow subscriber
	// can never block a recording worker.
	subMu   sync.Mutex
	subs    map[int]chan struct{}
	nextSub int
}

// NewCollector creates a collector for the given transaction-type names with
// 1-second windows.
func NewCollector(types []string) *Collector {
	return NewCollectorWindow(types, time.Second)
}

// NewCollectorWindow creates a collector with a custom window duration.
func NewCollectorWindow(types []string, window time.Duration) *Collector {
	c := &Collector{
		start:     time.Now(),
		windowDur: window,
		types:     append([]string(nil), types...),
		now:       time.Now,
		shards:    make([]shard, nshards),
	}
	const padSlots = 8 // 64B of atomic.Int64: keeps shards' arrays apart
	for i := range c.shards {
		s := &c.shards[i]
		s.perType = make([]atomic.Int64, len(types), len(types)+padSlots)
		s.lat = make([]latCell, len(types))
		backing := make([]atomic.Int64, 2*len(types)*nBuckets)
		for t := range s.lat {
			s.lat[t].counts = backing[2*t*nBuckets : (2*t+1)*nBuckets : (2*t+1)*nBuckets]
			s.lat[t].resp.counts = backing[(2*t+1)*nBuckets : (2*t+2)*nBuckets : (2*t+2)*nBuckets]
		}
	}
	c.base.perType = make([]int64, len(types))
	c.histBase = make([][]int64, len(types))
	for t := range c.histBase {
		c.histBase[t] = make([]int64, nBuckets)
	}
	c.latSumBase = make([]int64, len(types))
	c.curBuf = make([]int64, nBuckets)
	c.deltaBuf = make([]int64, nBuckets)
	c.allBuf = make([]int64, nBuckets)
	c.respBase = HistSnapshot{Counts: make([]int64, nBuckets)}
	return c
}

// Types returns the transaction-type names.
func (c *Collector) Types() []string { return c.types }

// Start returns the collection start time.
func (c *Collector) Start() time.Time { return c.start }

// WindowDuration returns the throughput window length.
func (c *Collector) WindowDuration() time.Duration { return c.windowDur }

// windowIndex returns the window ordinal for time t.
func (c *Collector) windowIndex(t time.Time) int {
	return int(t.Sub(c.start) / c.windowDur)
}

// sumShards aggregates the monotonic shard counters.
func (c *Collector) sumShards() totals {
	t := totals{perType: make([]int64, len(c.types))}
	for i := range c.shards {
		s := &c.shards[i]
		t.committed += s.committed.Load()
		t.aborted += s.aborted.Load()
		t.errors += s.errors.Load()
		t.retries += s.retries.Load()
		t.sumLatUS += s.sumLatUS.Load()
		for ti := range t.perType {
			t.perType[ti] += s.perType[ti].Load()
		}
	}
	return t
}

// advance rotates the live window forward to idx: the delta of shard totals
// since the last rotation is attributed to the window that was live, and any
// fully elapsed windows in between are materialized empty (records made
// during them would have triggered rotation themselves). Callers hold c.mu.
func (c *Collector) advance(idx int) {
	live := int(c.liveIdx.Load())
	if idx <= live {
		return
	}
	cur := c.sumShards()
	w := Window{
		Index:        live,
		Start:        time.Duration(live) * c.windowDur,
		Committed:    cur.committed - c.base.committed,
		Aborted:      cur.aborted - c.base.aborted,
		Errors:       cur.errors - c.base.errors,
		Retries:      cur.retries - c.base.retries,
		SumLatencyUS: cur.sumLatUS - c.base.sumLatUS,
		PerType:      make([]int64, len(c.types)),
		TypeLat:      make([]LatencySummary, len(c.types)),
	}
	for ti := range w.PerType {
		w.PerType[ti] = cur.perType[ti] - c.base.perType[ti]
	}
	// Merge the per-shard histograms: for each type, sum the shard buckets
	// into curBuf, diff against the window-start baseline into deltaBuf,
	// digest the delta, and fold it into the all-types delta (allBuf). The
	// baseline then becomes the merged current counts.
	clearInts(c.allBuf)
	var allSum int64
	for t := range c.types {
		clearInts(c.curBuf)
		for si := range c.shards {
			counts := c.shards[si].lat[t].counts
			for b := range c.curBuf {
				c.curBuf[b] += counts[b].Load()
			}
		}
		var curSum int64
		for si := range c.shards {
			curSum += c.shards[si].lat[t].sum.Load()
		}
		base := c.histBase[t]
		for b := range c.deltaBuf {
			d := c.curBuf[b] - base[b]
			c.deltaBuf[b] = d
			c.allBuf[b] += d
		}
		deltaSum := curSum - c.latSumBase[t]
		allSum += deltaSum
		w.TypeLat[t] = HistSnapshot{Counts: c.deltaBuf, SumUS: deltaSum}.Summary()
		copy(base, c.curBuf)
		c.latSumBase[t] = curSum
	}
	w.Lat = HistSnapshot{Counts: c.allBuf, SumUS: allSum}.Summary()
	resp := c.GlobalResponseSnapshot()
	for b, n := range resp.Counts {
		c.deltaBuf[b] = n - c.respBase.Counts[b]
	}
	w.Resp = HistSnapshot{Counts: c.deltaBuf, SumUS: resp.SumUS - c.respBase.SumUS}.Summary()
	c.respBase = resp
	c.history = append(c.history, w)
	c.base = cur
	for g := live + 1; g < idx; g++ {
		c.history = append(c.history, Window{
			Index:   g,
			Start:   time.Duration(g) * c.windowDur,
			PerType: make([]int64, len(c.types)),
			TypeLat: make([]LatencySummary, len(c.types)),
		})
	}
	c.liveIdx.Store(int64(idx))
	c.notifySubscribers()
}

// clearInts zeroes a scratch slice.
func clearInts(s []int64) {
	for i := range s {
		s[i] = 0
	}
}

// Subscribe registers a window-completion listener: the returned channel
// receives a (coalesced) signal whenever rotation finalizes one or more
// windows. The send is non-blocking, so a slow listener only coalesces
// signals and can never stall the recording path. The cancel function
// removes the listener.
func (c *Collector) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	c.subMu.Lock()
	if c.subs == nil {
		c.subs = make(map[int]chan struct{})
	}
	id := c.nextSub
	c.nextSub++
	c.subs[id] = ch
	c.subMu.Unlock()
	return ch, func() {
		c.subMu.Lock()
		delete(c.subs, id)
		c.subMu.Unlock()
	}
}

// notifySubscribers signals every listener without blocking. Called with
// c.mu held (subMu is a leaf lock).
func (c *Collector) notifySubscribers() {
	c.subMu.Lock()
	for _, ch := range c.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	c.subMu.Unlock()
}

// shardIDs hands out goroutine-affine shard ordinals for Collector.Record
// callers that do not hold a Recorder. sync.Pool storage is per-P, so a
// worker keeps drawing the same ordinal while it stays on one processor.
var (
	nextShardID atomic.Int64
	shardIDs    = sync.Pool{New: func() any {
		id := int(nextShardID.Add(1)) & (nshards - 1)
		return &id
	}}
)

// Record notes one transaction attempt outcome. typeIdx indexes the
// collector's type list; latency applies to committed transactions. The
// shard is picked with processor affinity; hot loops that know their worker
// id should use a Recorder handle instead.
func (c *Collector) Record(typeIdx int, status Status, latency time.Duration) {
	id := shardIDs.Get().(*int)
	c.record(&c.shards[*id], typeIdx, status, latency, -1)
	shardIDs.Put(id)
}

// Recorder is a shard-bound recording handle for one worker. It is the hot
// path the workload manager uses: Record on it is wait-free (atomic adds on
// the worker's own padded shard, including the histogram bucket add) except
// when it is the first to observe that a window has elapsed, in which case
// it performs the rotation under the collector mutex once per window.
type Recorder struct {
	c *Collector
	s *shard
}

// Recorder returns the recording handle for one worker id.
func (c *Collector) Recorder(worker int) Recorder {
	return Recorder{c: c, s: &c.shards[worker&(nshards-1)]}
}

// Record notes one transaction attempt outcome on the worker's shard.
func (r Recorder) Record(typeIdx int, status Status, latency time.Duration) {
	r.c.record(r.s, typeIdx, status, latency, -1)
}

// RecordPaced is Record for a transaction an arrival asked for: latency is
// its service time as in Record, response the time from when the arrival
// was due to the transaction's end (queue wait plus service).
func (r Recorder) RecordPaced(typeIdx int, status Status, latency, response time.Duration) {
	r.c.record(r.s, typeIdx, status, latency, max(response, 0))
}

// record notes one outcome; a negative response marks an unpaced one.
func (c *Collector) record(s *shard, typeIdx int, status Status, latency, response time.Duration) {
	idx := c.windowIndex(c.now())
	if int64(idx) > c.liveIdx.Load() {
		// First record of a new window: rotate. Once per window per worker
		// at most, so the mutex stays off the steady-state path.
		c.mu.Lock()
		c.advance(idx)
		c.mu.Unlock()
	}
	switch status {
	case StatusOK:
		us := latency.Microseconds()
		s.committed.Add(1)
		s.sumLatUS.Add(us)
		if typeIdx >= 0 && typeIdx < len(s.perType) {
			s.perType[typeIdx].Add(1)
			s.lat[typeIdx].record(us)
			if response >= 0 {
				s.lat[typeIdx].resp.record(response.Microseconds())
			}
		}
	case StatusAborted:
		s.aborted.Add(1)
	case StatusRetry:
		s.retries.Add(1)
	case StatusError:
		s.errors.Add(1)
	}
}

// Committed returns the total committed count.
func (c *Collector) Committed() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].committed.Load()
	}
	return n
}

// Aborted returns the total aborted count.
func (c *Collector) Aborted() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].aborted.Load()
	}
	return n
}

// Errors returns the total error count.
func (c *Collector) Errors() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].errors.Load()
	}
	return n
}

// Retries returns the total retry count.
func (c *Collector) Retries() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].retries.Load()
	}
	return n
}

// typeHist merges the shards' cumulative buckets for one transaction type:
// its service-time histogram, or with resp its response-time one. It takes
// no lock: the counters are monotonic, so the copy is a consistent-enough
// point-in-time view for reporting.
func (c *Collector) typeHist(i int, resp bool) HistSnapshot {
	hs := HistSnapshot{Counts: make([]int64, nBuckets)}
	if i < 0 || i >= len(c.types) {
		return hs
	}
	for si := range c.shards {
		cell := &c.shards[si].lat[i]
		if resp {
			cell.resp.addTo(&hs)
		} else {
			cell.addTo(&hs)
		}
	}
	return hs
}

// globalHist merges every type's cumulative buckets.
func (c *Collector) globalHist(resp bool) HistSnapshot {
	hs := HistSnapshot{Counts: make([]int64, nBuckets)}
	for t := range c.types {
		hs.Merge(c.typeHist(t, resp))
	}
	return hs
}

// TypeHistSnapshot merges the shards' cumulative service-time buckets for
// one transaction type.
func (c *Collector) TypeHistSnapshot(i int) HistSnapshot { return c.typeHist(i, false) }

// GlobalHistSnapshot merges every type's cumulative service-time buckets.
func (c *Collector) GlobalHistSnapshot() HistSnapshot { return c.globalHist(false) }

// TypeResponseSnapshot merges the shards' cumulative response-time buckets
// (due to end, paced transactions only) for one transaction type.
func (c *Collector) TypeResponseSnapshot(i int) HistSnapshot { return c.typeHist(i, true) }

// GlobalResponseSnapshot merges every type's cumulative response-time
// buckets.
func (c *Collector) GlobalResponseSnapshot() HistSnapshot { return c.globalHist(true) }

// TypeSummary digests one type's cumulative latency distribution.
func (c *Collector) TypeSummary(i int) LatencySummary { return c.TypeHistSnapshot(i).Summary() }

// GlobalSummary digests the all-types cumulative latency distribution.
func (c *Collector) GlobalSummary() LatencySummary { return c.GlobalHistSnapshot().Summary() }

// Global returns the all-types latency histogram, merged from the per-worker
// shards (a fresh copy; mutating it does not affect the collector).
func (c *Collector) Global() *Histogram { return c.GlobalHistSnapshot().Histogram() }

// TypeHistogram returns the latency histogram of one transaction type,
// merged from the per-worker shards (a fresh copy).
func (c *Collector) TypeHistogram(i int) *Histogram { return c.TypeHistSnapshot(i).Histogram() }

// Windows returns all finalized windows up to now (forcing rotation of any
// windows that have fully elapsed).
func (c *Collector) Windows() []Window {
	return c.WindowsSince(0)
}

// WindowsSince returns the finalized windows with Index >= from, forcing
// rotation of any fully elapsed windows first. Window indexes are
// consecutive from zero (gaps are materialized empty), so history position
// equals ordinal; SSE streams use this to fetch exactly the windows they
// have not yet pushed.
func (c *Collector) WindowsSince(from int) []Window {
	idx := c.windowIndex(c.now())
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(idx)
	if from < 0 {
		from = 0
	}
	if from >= len(c.history) {
		return nil
	}
	out := make([]Window, len(c.history)-from)
	copy(out, c.history[from:])
	return out
}

// Snapshot is the instantaneous feedback the control API serves: the last
// complete window's throughput and per-type latency, as the paper's Section
// 2.2.4 describes, extended with the percentile digests the live
// observability layer pushes.
type Snapshot struct {
	// Elapsed is the time since collection start.
	Elapsed time.Duration
	// TPS is the committed throughput of the last complete window.
	TPS float64
	// AbortsPerSec is the abort rate of the last complete window.
	AbortsPerSec float64
	// AvgLatency is the mean committed latency of the last complete window.
	AvgLatency time.Duration
	// WindowLat digests the last complete window's committed latency across
	// all types (p50/p95/p99/max).
	WindowLat LatencySummary
	// TypeNames and TypeLatency give per-transaction-type mean latency over
	// the whole run; TypeCounts the committed totals.
	TypeNames   []string
	TypeLatency []time.Duration
	TypeCounts  []int64
	// TypeLat are the cumulative per-type latency digests (parallel to
	// TypeNames).
	TypeLat []LatencySummary
	// Latency is the cumulative all-types latency digest.
	Latency LatencySummary
	// Response and TypeResp are the response-time (due to end) counterparts
	// of Latency and TypeLat over the paced transactions; zero for a run
	// that was never paced.
	Response LatencySummary
	TypeResp []LatencySummary
	// Totals.
	Committed, Aborted, Errors, Retries int64
}

// Snapshot returns instantaneous performance feedback.
func (c *Collector) Snapshot() Snapshot {
	now := c.now()
	idx := c.windowIndex(now)
	c.mu.Lock()
	c.advance(idx)
	var last Window
	if n := len(c.history); n > 0 {
		last = c.history[n-1]
	}
	c.mu.Unlock()

	s := Snapshot{
		Elapsed:      now.Sub(c.start),
		TPS:          last.TPS(c.windowDur),
		AbortsPerSec: float64(last.Aborted) / c.windowDur.Seconds(),
		AvgLatency:   last.AvgLatency(),
		WindowLat:    last.Lat,
		TypeNames:    c.types,
		Committed:    c.Committed(),
		Aborted:      c.Aborted(),
		Errors:       c.Errors(),
		Retries:      c.Retries(),
	}
	s.TypeLatency = make([]time.Duration, len(c.types))
	s.TypeCounts = make([]int64, len(c.types))
	s.TypeLat = make([]LatencySummary, len(c.types))
	s.TypeResp = make([]LatencySummary, len(c.types))
	// One pass over the shards per type; the all-types digests come from
	// merging the per-type copies.
	var all, allResp HistSnapshot
	for i := range c.types {
		h, r := c.typeHist(i, false), c.typeHist(i, true)
		ts := h.Summary()
		s.TypeLat[i] = ts
		s.TypeLatency[i] = ts.Mean
		s.TypeCounts[i] = ts.Count
		s.TypeResp[i] = r.Summary()
		all.Merge(h)
		allResp.Merge(r)
	}
	s.Latency = all.Summary()
	s.Response = allResp.Summary()
	return s
}
