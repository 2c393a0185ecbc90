package cluster

import (
	"bufio"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"benchpress/internal/stats"
)

// lossyConn is the worker's end of an in-memory connection that, once
// dropping, accepts writes and discards them: the bytes a kernel took into
// its send buffer just before the peer's reset arrived.
type lossyConn struct {
	net.Conn
	dropping atomic.Bool
}

func (c *lossyConn) Write(p []byte) (int, error) {
	if c.dropping.Load() {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestReconnectResendsLostUpdate drops the update in flight at an eviction
// and requires the coordinator's totals to come out exact after the worker
// reconnects. It is deterministic and sleeps nowhere: net.Pipe has no
// buffer, so a frame write returns only once the coordinator's read loop has
// taken it, which it does only after applying every frame before it.
func TestReconnectResendsLostUpdate(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// No sweep evicts anyone during the test: eviction is explicit.
	co := NewCoordinator(ln, CoordinatorOptions{Heartbeat: time.Hour})
	defer co.Close()

	col := stats.NewCollector([]string{"A"})
	a := &workerAgent{c: col, opts: WorkerOptions{Name: "w", Benchmark: "ycsb", DB: "gomvcc"}}
	commit := func(n int) {
		for i := 0; i < n; i++ {
			col.Record(0, stats.StatusOK, time.Duration(100+i)*time.Microsecond)
		}
	}
	connect := func() (*lossyConn, *bufio.Writer) {
		worker, coord := net.Pipe()
		go co.serveWorker(coord)
		lc := &lossyConn{Conn: worker}
		br, bw := bufio.NewReader(lc), bufio.NewWriter(lc)
		w, err := a.handshake(br, bw)
		if err != nil {
			t.Fatal(err)
		}
		// Drain Assign frames, as the session's reader does: a pipe write
		// blocks until it is read.
		go func() { _, _ = io.Copy(io.Discard, br) }()
		if err := a.resume(bw, w.LastSeq); err != nil {
			t.Fatal(err)
		}
		return lc, bw
	}
	// settle returns once the coordinator has applied every frame written
	// before it: the heartbeat's write completes only when the read loop
	// asks for the next frame.
	settle := func(bw *bufio.Writer) {
		if err := a.writeHeartbeat(bw); err != nil {
			t.Fatal(err)
		}
	}

	conn1, bw1 := connect()
	commit(3)
	if err := a.writeUpdate(bw1); err != nil {
		t.Fatal(err)
	}
	settle(bw1)
	if got := co.Status().Committed; got != 3 {
		t.Fatalf("coordinator committed %d after the first update, want 3", got)
	}

	// Evict, then write the next update into the dead connection: it is
	// accepted locally and never arrives.
	co.EvictWorker(a.opts.WorkerID)
	conn1.dropping.Store(true)
	commit(2)
	if err := a.writeUpdate(bw1); err != nil {
		t.Fatal(err)
	}
	_ = conn1.Close()

	_, bw2 := connect()
	commit(1)
	if err := a.writeUpdate(bw2); err != nil {
		t.Fatal(err)
	}
	settle(bw2)
	st := co.Status()
	if st.Committed != col.Committed() {
		t.Fatalf("coordinator committed %d, worker %d: the update lost at eviction was not re-sent", st.Committed, col.Committed())
	}
	if got, want := co.Collector().GlobalSummary(), col.GlobalSummary(); got != want {
		t.Fatalf("merged latency %+v, worker %+v", got, want)
	}
	if st.DriftEvents != 0 {
		t.Fatalf("%d drift events", st.DriftEvents)
	}
	// A second reconnect with nothing lost re-sends nothing twice.
	_, bw3 := connect()
	settle(bw3)
	if got := co.Status().Committed; got != col.Committed() {
		t.Fatalf("coordinator committed %d after a clean reconnect, worker %d", got, col.Committed())
	}
}
