package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"benchpress/internal/core"
	"benchpress/internal/stats"
)

// WorkerOptions configures one worker agent.
type WorkerOptions struct {
	// Addr is the coordinator's control-wire TCP address.
	Addr string
	// WorkerID is the id a prior HTTP registration assigned; zero registers
	// directly over the wire on first Hello.
	WorkerID uint64
	// Name identifies the worker in cluster status (defaulted by the
	// coordinator when empty).
	Name string
	// Benchmark and DB describe what the worker runs, for cluster status.
	Benchmark string
	DB        string
	// ReconnectMin/Max bound the dial backoff (defaults 100ms / 2s).
	ReconnectMin time.Duration
	ReconnectMax time.Duration
}

func (o *WorkerOptions) fill() {
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 100 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 2 * time.Second
	}
}

// workerAgent binds a local workload Manager to the coordinator: it applies
// Assign frames to the manager's dynamic controls and ships the collector's
// counter movement back as cumulative deltas.
type workerAgent struct {
	m    *core.Manager
	c    *stats.Collector
	opts WorkerOptions
	gen  atomic.Uint64 // newest assignment generation applied

	// The delta baseline persists across reconnects: the coordinator keeps
	// the accumulated view per worker id, so a reconnect resumes the
	// cumulative stream instead of restarting it.
	seq  uint64
	sent stats.Delta // the collector's Cumulative as of the last update
	// unacked holds the encoded updates no Welcome has yet shown applied,
	// oldest first and at most maxResend of them. Nothing else acknowledges
	// an update, so any of them may have gone into a connection the
	// coordinator had already dropped; the next Welcome says which.
	unacked []sentUpdate
}

// sentUpdate is one encoded StatsUpdate, kept for re-sending.
type sentUpdate struct {
	seq     uint64
	payload []byte
}

// maxResend bounds the updates a worker can re-send after a reconnect: 16 s
// of flushes at the default cadence. Updates are kept encoded (sparse, a
// few hundred bytes) rather than as cumulative baselines to rebase on, which
// are dense (two full histograms per type) and would cost ~200 KB each.
const maxResend = 64

// RunWorker runs m as one cluster worker agent: it launches the manager,
// maintains a control-wire connection to the coordinator (reconnecting with
// backoff), applies assignments, and streams stats until the manager
// finishes or ctx is cancelled. The manager's own Run error is returned.
func RunWorker(ctx context.Context, m *core.Manager, opts WorkerOptions) error {
	opts.fill()
	a := &workerAgent{m: m, c: m.Collector(), opts: opts}

	runErr := make(chan error, 1)
	go func() { runErr <- m.Run(ctx) }()

	backoff := opts.ReconnectMin
	done := false
	for !done {
		conn, err := net.DialTimeout("tcp", opts.Addr, 5*time.Second)
		if err != nil {
			// Coordinator unreachable: wait out the backoff, unless the run
			// ends first — then there is nobody to flush to.
			select {
			case <-ctx.Done():
				done = true
			case <-m.Done():
				done = true
			case <-time.After(backoff):
				backoff *= 2
				if backoff > opts.ReconnectMax {
					backoff = opts.ReconnectMax
				}
			}
			continue
		}
		backoff = opts.ReconnectMin
		done = a.session(ctx, conn)
	}
	m.Stop()
	return <-runErr
}

// session drives one control connection. It returns true when the agent is
// finished (manager done or ctx cancelled), false on a connection break that
// the caller should redial.
func (a *workerAgent) session(ctx context.Context, conn net.Conn) bool {
	defer func() { _ = conn.Close() }()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(conn, 16<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)

	w, err := a.handshake(br, bw)
	if err != nil {
		return false
	}

	// The reader goroutine owns inbound frames (assignments); this goroutine
	// owns all writes. connDead closes when the peer is gone.
	connDead := make(chan struct{})
	go func() {
		defer close(connDead)
		for {
			typ, payload, err := ReadFrame(br)
			if err != nil {
				return
			}
			if typ == FrameAssign {
				if asg, err := decodeAssign(payload); err == nil {
					a.applyAssign(asg)
				}
			}
			// Unknown inbound frames are skipped, not fatal: a newer
			// coordinator may add advisory frames.
		}
	}()
	// Re-send only once the reader runs: a coordinator still writing its
	// first Assign must not wait on a worker that is busy writing.
	if err := a.resume(bw, w.LastSeq); err != nil {
		return false
	}

	flushEvery := time.Duration(w.FlushUS) * time.Microsecond
	if flushEvery <= 0 {
		flushEvery = 250 * time.Millisecond
	}
	hbEvery := time.Duration(w.HeartbeatUS) * time.Microsecond
	if hbEvery <= 0 {
		hbEvery = 500 * time.Millisecond
	}
	flush := time.NewTicker(flushEvery)
	defer flush.Stop()
	hb := time.NewTicker(hbEvery)
	defer hb.Stop()

	for {
		select {
		case <-connDead:
			return false
		case <-ctx.Done():
			a.goodbye(bw, "context cancelled")
			return true
		case <-a.m.Done():
			// Final flush: the manager's workers have drained, so the
			// collector is quiescent and this delta makes the coordinator's
			// totals exactly equal the worker's.
			if a.writeUpdate(bw) == nil {
				a.goodbye(bw, "run complete")
			}
			return true
		case <-flush.C:
			if err := a.writeUpdate(bw); err != nil {
				return false
			}
		case <-hb.C:
			if err := a.writeHeartbeat(bw); err != nil {
				return false
			}
		}
	}
}

// handshake sends the Hello and reads the Welcome.
func (a *workerAgent) handshake(br *bufio.Reader, bw *bufio.Writer) (Welcome, error) {
	hello := Hello{
		Proto:     ProtoVersion,
		WorkerID:  a.opts.WorkerID,
		Name:      a.opts.Name,
		Benchmark: a.opts.Benchmark,
		DB:        a.opts.DB,
		Types:     a.c.Types(),
	}
	if err := WriteFrame(bw, FrameHello, hello.encode()); err != nil {
		return Welcome{}, err
	}
	if err := bw.Flush(); err != nil {
		return Welcome{}, err
	}
	typ, payload, err := ReadFrame(br)
	if err != nil {
		return Welcome{}, err
	}
	if typ != FrameWelcome {
		return Welcome{}, fmt.Errorf("cluster: expected Welcome, got frame type %d", typ)
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		return Welcome{}, err
	}
	a.opts.WorkerID = w.WorkerID // keep the assigned id across reconnects
	return w, nil
}

// resume re-sends, in order, the kept updates after applied, the last Seq the
// coordinator applied for this worker: they were written into a connection
// it had already dropped. They stay kept, since this connection may drop
// them too. A coordinator ahead of the agent (a restarted worker process
// presenting its registered id) moves the agent's Seq past its own, or it
// would drop every update as a duplicate.
func (a *workerAgent) resume(bw *bufio.Writer, applied uint64) error {
	kept := a.unacked[:0]
	for _, u := range a.unacked {
		if u.seq > applied {
			kept = append(kept, u)
		}
	}
	a.unacked = kept
	a.seq = max(a.seq, applied)
	for _, u := range kept {
		if err := WriteFrame(bw, FrameStats, u.payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// applyAssign applies one assignment to the manager's dynamic controls,
// guarded by generation so a stale frame replayed across a reconnect cannot
// roll newer controls back.
func (a *workerAgent) applyAssign(asg Assign) {
	for {
		cur := a.gen.Load()
		if asg.Gen <= cur {
			return
		}
		if a.gen.CompareAndSwap(cur, asg.Gen) {
			break
		}
	}
	a.m.SetRate(asg.Rate)
	if len(asg.Mix) > 0 {
		a.m.SetMix(asg.Mix)
	} else {
		a.m.SetMix(nil) // restore benchmark default
	}
	if asg.Paused {
		a.m.Pause()
	} else {
		a.m.Resume()
	}
}

// buildUpdate encodes the collector's movement since the last update,
// advances the baseline and keeps the payload until a Welcome shows it
// applied. Deltas are exact: every counter movement is applied exactly once,
// which is what keeps the coordinator's merged totals equal to the sum of
// the workers'.
func (a *workerAgent) buildUpdate() []byte {
	a.seq++
	cur := a.c.Cumulative()
	payload := StatsUpdate{Seq: a.seq, Delta: cur.Since(a.sent)}.encode()
	a.sent = cur
	if len(a.unacked) == maxResend {
		a.unacked = a.unacked[1:]
	}
	a.unacked = append(a.unacked, sentUpdate{seq: a.seq, payload: payload})
	return payload
}

func (a *workerAgent) writeUpdate(bw *bufio.Writer) error {
	if err := WriteFrame(bw, FrameStats, a.buildUpdate()); err != nil {
		return err
	}
	return bw.Flush()
}

func (a *workerAgent) writeHeartbeat(bw *bufio.Writer) error {
	hb := Heartbeat{
		Committed: a.sent.Committed,
		Aborted:   a.sent.Aborted,
		Errors:    a.sent.Errors,
		Retries:   a.sent.Retries,
	}
	if err := WriteFrame(bw, FrameHeartbeat, hb.encode()); err != nil {
		return err
	}
	return bw.Flush()
}

func (a *workerAgent) goodbye(bw *bufio.Writer, reason string) {
	// Best-effort: the coordinator treats a bare disconnect identically.
	if WriteFrame(bw, FrameBye, Bye{Reason: reason}.encode()) == nil {
		_ = bw.Flush()
	}
}

// RegisterRequest is the HTTP registration payload
// (POST /api/v1/cluster/workers).
type RegisterRequest struct {
	Name      string `json:"name"`
	Benchmark string `json:"benchmark"`
	DB        string `json:"db"`
}

// RegisterResponse answers an HTTP registration with the assigned worker id
// and where/how to attach the control wire.
type RegisterResponse struct {
	WorkerID    uint64 `json:"worker_id"`
	WireAddr    string `json:"wire_addr"`
	WindowUS    int64  `json:"window_us"`
	FlushUS     int64  `json:"flush_us"`
	HeartbeatUS int64  `json:"heartbeat_us"`
}

// RegisterWorker registers over the coordinator's HTTP API (baseURL like
// "http://127.0.0.1:8090") and returns the assigned id plus the control-wire
// address to dial. Registration retries with backoff until the coordinator
// answers or ctx ends, so workers can start before the coordinator.
func RegisterWorker(ctx context.Context, baseURL string, req RegisterRequest) (RegisterResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return RegisterResponse{}, err
	}
	backoff := 100 * time.Millisecond
	for {
		resp, err := postJSON(ctx, baseURL+"/api/v1/cluster/workers", body)
		if err == nil {
			return resp, nil
		}
		select {
		case <-ctx.Done():
			return RegisterResponse{}, fmt.Errorf("cluster: register at %s: %w", baseURL, err)
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

func postJSON(ctx context.Context, url string, body []byte) (RegisterResponse, error) {
	var out RegisterResponse
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return out, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("cluster: registration rejected: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	return out, nil
}
