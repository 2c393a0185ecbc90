package cluster

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"benchpress/internal/stats"
)

// CoordinatorOptions sets the cluster cadences. Zero values take defaults.
type CoordinatorOptions struct {
	// Window is the merged-feed window duration (default 1s).
	Window time.Duration
	// Flush is the deadline workers coalesce stat updates under (default
	// 250ms — four updates per 1s window keeps the merged feed fresh while
	// batching hundreds of transactions per frame).
	Flush time.Duration
	// Heartbeat is the worker heartbeat interval (default 500ms). A worker
	// silent for 3 heartbeats is evicted and its rate share rebalanced.
	Heartbeat time.Duration
}

func (o *CoordinatorOptions) fill() {
	if o.Window <= 0 {
		o.Window = time.Second
	}
	if o.Flush <= 0 {
		o.Flush = 250 * time.Millisecond
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id        uint64
	name      string
	benchmark string
	db        string

	// conn/bw are nil while the worker is detached (registered over HTTP but
	// not yet connected, or between reconnects). wmu serializes Assign writes
	// against each other; the read loop never writes.
	conn net.Conn
	bw   *bufio.Writer
	wmu  sync.Mutex

	lastSeen   time.Time // any frame
	lastUpdate time.Time // last StatsUpdate specifically
	lastSeq    uint64

	committed int64
	aborted   int64
	errors    int64
	retries   int64
}

// WorkerStatus is one worker's externally visible state.
type WorkerStatus struct {
	ID        uint64 `json:"id"`
	Name      string `json:"name"`
	Benchmark string `json:"benchmark"`
	DB        string `json:"db"`
	Connected bool   `json:"connected"`
	// Stale marks a connected worker whose stats feed has missed at least
	// two flush deadlines; its numbers are still merged (they are cumulative
	// deltas, nothing is lost) but its share of "now" is outdated.
	Stale      bool    `json:"stale"`
	LastSeenMS int64   `json:"last_seen_ms"`
	RateShare  float64 `json:"rate_share"`
	Committed  int64   `json:"committed"`
	Aborted    int64   `json:"aborted"`
	Errors     int64   `json:"errors"`
	Retries    int64   `json:"retries"`
}

// ClusterStatus is the coordinator's externally visible state.
type ClusterStatus struct {
	Benchmark  string         `json:"benchmark"`
	Types      []string       `json:"types,omitempty"`
	TargetRate float64        `json:"target_rate"`
	Paused     bool           `json:"paused"`
	Mix        []float64      `json:"mix,omitempty"`
	Workers    []WorkerStatus `json:"workers"`
	Committed  int64          `json:"committed"`
	Aborted    int64          `json:"aborted"`
	Errors     int64          `json:"errors"`
	Retries    int64          `json:"retries"`
	// DriftEvents counts heartbeat cross-checks where a worker's cumulative
	// counters fell behind the delta-accumulated view (always zero unless the
	// lossless-delta invariant broke).
	DriftEvents int64                `json:"drift_events"`
	Latency     stats.LatencySummary `json:"-"`
}

// Coordinator owns the cluster: it accepts worker control connections,
// folds their stat streams into one merged stats.Collector, and fans
// dynamic-control changes back out as rate-share assignments. The merged feed
// is an ordinary collector whose windows rotate on the coordinator's clock,
// so a slow or dead worker only goes stale; it never stalls the feed.
type Coordinator struct {
	opts   CoordinatorOptions
	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool
	stopCh chan struct{}

	mu          sync.Mutex
	nextID      uint64
	gen         uint64
	targetRate  float64
	paused      bool
	mix         []float64
	benchmark   string
	workers     map[uint64]*workerState
	driftEvents int64
	// feed is the merged stats feed, created when the first worker's Hello
	// fixes the type list.
	feed *stats.Collector
}

// NewCoordinator starts a coordinator serving the worker control wire on ln.
func NewCoordinator(ln net.Listener, opts CoordinatorOptions) *Coordinator {
	opts.fill()
	c := &Coordinator{
		opts:    opts,
		ln:      ln,
		stopCh:  make(chan struct{}),
		workers: map[uint64]*workerState{},
	}
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.acceptLoop()
	}()
	go func() {
		defer c.wg.Done()
		c.sweepLoop()
	}()
	return c
}

// Addr returns the control-wire listener address workers dial.
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// WindowDuration returns the merged feed's window length.
func (c *Coordinator) WindowDuration() time.Duration { return c.opts.Window }

// Close stops the coordinator: the listener closes, connected workers are
// disconnected, and background loops drain.
func (c *Coordinator) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	close(c.stopCh)
	_ = c.ln.Close()
	c.mu.Lock()
	for _, w := range c.workers {
		if w.conn != nil {
			_ = w.conn.Close()
		}
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// Register pre-registers a worker (the HTTP registration path). The returned
// id is presented in the worker's control-wire Hello. Registration fixes
// identity only; the benchmark type list arrives with the Hello.
func (c *Coordinator) Register(name, benchmark, db string) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.benchmark != "" && benchmark != c.benchmark {
		return 0, fmt.Errorf("cluster: benchmark %q does not match cluster benchmark %q", benchmark, c.benchmark)
	}
	c.nextID++
	id := c.nextID
	if name == "" {
		name = fmt.Sprintf("worker-%d", id)
	}
	c.workers[id] = &workerState{id: id, name: name, benchmark: benchmark, db: db, lastSeen: time.Now()}
	return id, nil
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.serveWorker(conn)
		}()
	}
}

// serveWorker drives one worker control connection: Hello/Welcome handshake,
// initial Assign, then an inbound loop of stats/heartbeat frames. Outbound
// Assign frames are written by control methods under the worker's write
// mutex; this loop only reads.
func (c *Coordinator) serveWorker(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 16<<10)

	typ, payload, err := ReadFrame(br)
	if err != nil || typ != FrameHello {
		return
	}
	hello, err := decodeHello(payload)
	if err != nil || hello.Proto != ProtoVersion {
		return
	}
	w, lastSeq, err := c.attach(hello, conn, bw)
	if err != nil {
		return
	}
	defer c.detach(w, conn)

	welcome := Welcome{
		WorkerID:    w.id,
		FlushUS:     c.opts.Flush.Microseconds(),
		HeartbeatUS: c.opts.Heartbeat.Microseconds(),
		LastSeq:     lastSeq,
	}
	w.wmu.Lock()
	err = WriteFrame(bw, FrameWelcome, welcome.encode())
	if err == nil {
		err = bw.Flush()
	}
	w.wmu.Unlock()
	if err != nil {
		return
	}
	// The initial assignment carries the worker's current rate share so a
	// reconnecting worker resynchronizes immediately.
	c.broadcastAssign()

	for {
		typ, payload, err := ReadFrame(br)
		if err != nil {
			return // disconnect; detach rebalances
		}
		now := time.Now()
		switch typ {
		case FrameStats:
			u, err := decodeStatsUpdate(payload)
			if err != nil {
				return
			}
			c.applyStats(w, conn, u, now)
		case FrameHeartbeat:
			hb, err := decodeHeartbeat(payload)
			if err != nil {
				return
			}
			c.applyHeartbeat(w, hb, now)
		case FrameBye:
			return
		default:
			return
		}
	}
}

// attach binds a control connection to its worker registration. A Hello with
// id 0 registers on the spot (the TCP-only path tests use); a nonzero id must
// match an existing registration and replaces any previous connection (the
// reconnect path). The first attach fixes the cluster's benchmark type list;
// later workers must present the same list or they are rejected — per-type
// deltas are indexed, so a mismatched list would corrupt the merge. It
// returns the Seq of the last update applied for the worker, read in the
// same critical section that makes conn the worker's only applying session.
func (c *Coordinator) attach(h Hello, conn net.Conn, bw *bufio.Writer) (*workerState, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var w *workerState
	if h.WorkerID == 0 {
		c.nextID++
		name := h.Name
		if name == "" {
			name = fmt.Sprintf("worker-%d", c.nextID)
		}
		w = &workerState{id: c.nextID, name: name, benchmark: h.Benchmark, db: h.DB}
		c.workers[w.id] = w
	} else {
		var ok bool
		w, ok = c.workers[h.WorkerID]
		if !ok {
			return nil, 0, fmt.Errorf("cluster: unknown worker id %d", h.WorkerID)
		}
		if old := w.conn; old != nil && old != conn {
			_ = old.Close()
		}
	}
	if c.feed == nil {
		c.feed = stats.NewCollectorWindow(h.Types, c.opts.Window)
		c.benchmark = h.Benchmark
	} else if !slices.Equal(c.feed.Types(), h.Types) {
		return nil, 0, fmt.Errorf("cluster: worker %d type list does not match cluster", w.id)
	}
	now := time.Now()
	// conn/bw flips take the write mutex too: broadcastAssign reads them
	// under wmu alone after snapshotting targets, so registry-lock coverage
	// is not enough.
	w.wmu.Lock()
	w.conn = conn
	w.bw = bw
	w.wmu.Unlock()
	w.lastSeen = now
	w.lastUpdate = now
	return w, w.lastSeq, nil
}

// detach drops a worker's connection (peer loss or Bye) and rebalances rate
// shares across the remaining connected workers — a killed worker's share is
// redistributed immediately, not at the next heartbeat sweep. The session's
// own conn is compared first: a reconnect may already have replaced it, and
// the stale session's teardown must not sever the replacement.
func (c *Coordinator) detach(w *workerState, conn net.Conn) {
	c.mu.Lock()
	w.wmu.Lock()
	if w.conn == conn {
		_ = w.conn.Close()
		w.conn = nil
		w.bw = nil
	}
	w.wmu.Unlock()
	c.mu.Unlock()
	c.broadcastAssign()
}

// applyStats folds one worker's update, read from conn, into its counters
// and the merged feed. Duplicate or reordered updates (possible across a
// reconnect replay) are rejected by sequence number, which preserves the
// exactness of the merged counters. So are updates a replaced session still
// had buffered: the new session's Welcome already told the worker where the
// applied stream ends, and the worker re-sends from there.
func (c *Coordinator) applyStats(w *workerState, conn net.Conn, u StatsUpdate, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.conn != conn {
		return
	}
	w.lastSeen = now
	if u.Seq <= w.lastSeq {
		return
	}
	w.lastSeq = u.Seq
	w.lastUpdate = now
	w.committed += u.Committed
	w.aborted += u.Aborted
	w.errors += u.Errors
	w.retries += u.Retries
	c.feed.Merge(u.Delta)
}

// applyHeartbeat records liveness and cross-checks the delta-accumulated
// totals against the worker's own cumulative counters.
func (c *Coordinator) applyHeartbeat(w *workerState, hb Heartbeat, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.lastSeen = now
	// Heartbeats race ahead of in-flight stat flushes, so the worker's own
	// counters may exceed the accumulated view; they must never be behind it.
	// Being behind means lost or double-applied deltas — counted rather than
	// patched over, so tests and operators can see the invariant break.
	if hb.Committed < w.committed || hb.Aborted < w.aborted {
		c.driftEvents++
	}
}

// sweepLoop evicts dead workers on the heartbeat cadence.
func (c *Coordinator) sweepLoop() {
	sweep := time.NewTicker(c.opts.Heartbeat)
	defer sweep.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-sweep.C:
			c.sweepDead()
		}
	}
}

// sweepDead evicts workers silent for 3 heartbeat intervals and rebalances.
func (c *Coordinator) sweepDead() {
	cutoff := time.Now().Add(-3 * c.opts.Heartbeat)
	var dropped bool
	c.mu.Lock()
	for _, w := range c.workers {
		if w.conn != nil && w.lastSeen.Before(cutoff) {
			_ = w.conn.Close() // read loop unwinds and detaches
			dropped = true
		}
	}
	c.mu.Unlock()
	if dropped {
		c.broadcastAssign()
	}
}

// EvictWorker forcibly disconnects a worker (the API's DELETE). Its stats
// stay merged; its rate share is rebalanced to the survivors.
func (c *Coordinator) EvictWorker(id uint64) bool {
	c.mu.Lock()
	w, ok := c.workers[id]
	if ok && w.conn != nil {
		_ = w.conn.Close()
	}
	c.mu.Unlock()
	return ok
}

// SetRate sets the aggregate cluster rate (0 = unlimited) and fans per-worker
// shares out.
func (c *Coordinator) SetRate(tps float64) {
	c.mu.Lock()
	if tps < 0 {
		tps = 0
	}
	c.targetRate = tps
	c.mu.Unlock()
	c.broadcastAssign()
}

// TargetRate returns the aggregate cluster rate target.
func (c *Coordinator) TargetRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.targetRate
}

// SetMix sets the cluster-wide transaction mixture (nil = benchmark default).
func (c *Coordinator) SetMix(weights []float64) {
	c.mu.Lock()
	c.mix = append([]float64(nil), weights...)
	c.mu.Unlock()
	c.broadcastAssign()
}

// Mix returns the cluster-wide mixture (nil = benchmark default).
func (c *Coordinator) Mix() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.mix...)
}

// SetPaused pauses or resumes arrivals cluster-wide.
func (c *Coordinator) SetPaused(paused bool) {
	c.mu.Lock()
	c.paused = paused
	c.mu.Unlock()
	c.broadcastAssign()
}

// Paused reports the cluster pause gate.
func (c *Coordinator) Paused() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.paused
}

// connected returns the workers with a live control connection. Callers
// hold c.mu.
func (c *Coordinator) connected() []*workerState {
	var live []*workerState
	for _, w := range c.workers {
		if w.conn != nil {
			live = append(live, w)
		}
	}
	return live
}

// shareOf splits the aggregate rate across n connected workers (0 =
// unlimited, also when nobody is connected). Callers hold c.mu.
func (c *Coordinator) shareOf(n int) float64 {
	if c.targetRate <= 0 || n == 0 {
		return 0
	}
	return c.targetRate / float64(n)
}

// broadcastAssign recomputes per-worker rate shares and pushes the current
// assignment to every connected worker under a fresh generation number.
func (c *Coordinator) broadcastAssign() {
	c.mu.Lock()
	c.gen++
	targets := c.connected()
	a := Assign{Gen: c.gen, Rate: c.shareOf(len(targets)), Paused: c.paused, Mix: append([]float64(nil), c.mix...)}
	c.mu.Unlock()

	payload := a.encode()
	for _, w := range targets {
		w.wmu.Lock()
		if w.bw != nil {
			// A write failure also surfaces on the worker's read loop, which
			// owns detach-and-rebalance; nothing to do with it here.
			if err := WriteFrame(w.bw, FrameAssign, payload); err == nil {
				_ = w.bw.Flush()
			}
		}
		w.wmu.Unlock()
	}
}

// RateShare returns the share a single worker currently receives.
func (c *Coordinator) RateShare() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shareOf(len(c.connected()))
}

// Collector returns the merged stats feed: every worker's stats folded into
// one stats.Collector whose windows rotate on the coordinator's clock as they
// are read. It is nil until the first worker's Hello fixes the type list.
func (c *Coordinator) Collector() *stats.Collector {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.feed
}

// Types returns the cluster's fixed transaction type list (nil until the
// first worker attaches).
func (c *Coordinator) Types() []string {
	if feed := c.Collector(); feed != nil {
		return feed.Types()
	}
	return nil
}

// Status returns the cluster's externally visible state.
func (c *Coordinator) Status() ClusterStatus {
	now := time.Now()
	staleCutoff := now.Add(-2 * c.opts.Flush)
	c.mu.Lock()
	defer c.mu.Unlock()
	share := c.shareOf(len(c.connected()))
	st := ClusterStatus{
		Benchmark:   c.benchmark,
		TargetRate:  c.targetRate,
		Paused:      c.paused,
		Mix:         append([]float64(nil), c.mix...),
		DriftEvents: c.driftEvents,
	}
	if c.feed != nil {
		st.Types = c.feed.Types()
		st.Committed, st.Aborted = c.feed.Committed(), c.feed.Aborted()
		st.Errors, st.Retries = c.feed.Errors(), c.feed.Retries()
		st.Latency = c.feed.GlobalSummary()
	}
	ids := make([]uint64, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w := c.workers[id]
		ws := WorkerStatus{
			ID:         w.id,
			Name:       w.name,
			Benchmark:  w.benchmark,
			DB:         w.db,
			Connected:  w.conn != nil,
			Stale:      w.conn != nil && w.lastUpdate.Before(staleCutoff),
			LastSeenMS: now.Sub(w.lastSeen).Milliseconds(),
			Committed:  w.committed,
			Aborted:    w.aborted,
			Errors:     w.errors,
			Retries:    w.retries,
		}
		if ws.Connected {
			ws.RateShare = share
		}
		st.Workers = append(st.Workers, ws)
	}
	return st
}
