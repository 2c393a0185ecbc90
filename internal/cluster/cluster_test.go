package cluster_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	_ "benchpress/internal/benchmarks/all"
	"benchpress/internal/cluster"
	"benchpress/internal/core"
	"benchpress/internal/dbdriver"
	"benchpress/internal/stats"
)

// newWorkerManager builds one embedded-engine YCSB workload for a cluster
// worker: small scale, its own database, one phase of d at rate (0 =
// unlimited).
func newWorkerManager(t *testing.T, name string, d time.Duration, terminals int, rate float64) (*core.Manager, func()) {
	t.Helper()
	b, err := core.NewBenchmark("ycsb", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dbdriver.Open("gomvcc")
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Prepare(b, db, 1); err != nil {
		db.Close()
		t.Fatal(err)
	}
	m := core.NewManager(b, db, []core.Phase{{Duration: d, Rate: rate}}, core.Options{
		Terminals: terminals,
		Name:      name,
	})
	return m, db.Close
}

func testCoordinator(t *testing.T) (*cluster.Coordinator, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co := cluster.NewCoordinator(ln, cluster.CoordinatorOptions{
		Window:    200 * time.Millisecond,
		Flush:     50 * time.Millisecond,
		Heartbeat: 100 * time.Millisecond,
	})
	t.Cleanup(co.Close)
	return co, ln.Addr().String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// runWorkers runs n in-process workers of 2 terminals each through the
// coordinator at addr for d at rate (0 = unlimited) and returns their
// managers once every worker has sent its final flush and Bye.
func runWorkers(t *testing.T, addr string, n int, d time.Duration, rate float64) []*core.Manager {
	t.Helper()
	managers := make([]*core.Manager, n)
	for i := range managers {
		m, closeDB := newWorkerManager(t, "w"+string(rune('0'+i)), d, 2, rate)
		t.Cleanup(closeDB)
		managers[i] = m
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i, m := range managers {
		wg.Add(1)
		go func(i int, m *core.Manager) {
			defer wg.Done()
			if err := cluster.RunWorker(ctx, m, cluster.WorkerOptions{
				Addr:      addr,
				Name:      m.Name(),
				Benchmark: "ycsb",
				DB:        "gomvcc",
			}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, m)
	}
	wg.Wait()
	return managers
}

// TestClusterGateMergedExactness is the CI gate for the scale-out path: a
// coordinator with two in-process workers running a short YCSB burst. The
// merged committed count must equal the sum of the workers' collectors
// EXACTLY (the stats wire ships lossless cumulative deltas, not samples),
// and the merged latency digest must equal an oracle built by merging the
// worker histograms directly in-process.
func TestClusterGateMergedExactness(t *testing.T) {
	co, addr := testCoordinator(t)
	managers := runWorkers(t, addr, 2, 1200*time.Millisecond, 0)
	var wantCommitted, wantAborted, wantErrors, wantRetries int64
	oracle := stats.HistSnapshot{}
	for _, m := range managers {
		c := m.Collector()
		wantCommitted += c.Committed()
		wantAborted += c.Aborted()
		wantErrors += c.Errors()
		wantRetries += c.Retries()
		oracle.Merge(c.GlobalHistSnapshot())
	}
	if wantCommitted == 0 {
		t.Fatal("workers committed nothing; workload did not run")
	}
	// RunWorker returns after its final flush and Bye, so the coordinator
	// has every delta once the reads drain; give the server loop a moment.
	waitFor(t, 2*time.Second, "merged committed count", func() bool {
		return co.Status().Committed == wantCommitted
	})

	st := co.Status()
	if st.Committed != wantCommitted || st.Aborted != wantAborted ||
		st.Errors != wantErrors || st.Retries != wantRetries {
		t.Fatalf("merged totals not exact: got %d/%d/%d/%d want %d/%d/%d/%d",
			st.Committed, st.Aborted, st.Errors, st.Retries,
			wantCommitted, wantAborted, wantErrors, wantRetries)
	}
	if st.DriftEvents != 0 {
		t.Fatalf("heartbeat cross-check saw %d drift events", st.DriftEvents)
	}

	// Percentile fidelity: the merged feed and the in-process oracle fold
	// the same bucket deltas with the same histogram code, so count, mean,
	// p50, p95, p99 and max are equal, not merely close.
	feed := co.Collector()
	if got, want := feed.GlobalSummary(), oracle.Summary(); got != want {
		t.Fatalf("merged digest %v != oracle %v", got, want)
	}

	// The merged feed produced windows and their committed sum never exceeds
	// the exact total (the tail may still sit in the unrotated window).
	wins := feed.Windows()
	if len(wins) == 0 {
		t.Fatal("no merged windows rotated")
	}
	var winSum int64
	for _, w := range wins {
		winSum += w.Committed
	}
	if winSum > wantCommitted {
		t.Fatalf("windows contain %d committed, more than the exact total %d", winSum, wantCommitted)
	}
}

// TestClusterMergedResponseTime runs paced workers: their response-time
// histograms travel with the service-time ones, so the merged windows carry
// response time and the merged response digest is exactly the union of the
// workers'.
func TestClusterMergedResponseTime(t *testing.T) {
	co, addr := testCoordinator(t)
	managers := runWorkers(t, addr, 2, 1200*time.Millisecond, 300)
	var oracle stats.HistSnapshot
	for _, m := range managers {
		oracle.Merge(m.Collector().GlobalResponseSnapshot())
	}
	want := oracle.Summary()
	if want.Count == 0 {
		t.Fatal("paced workers recorded no response time")
	}
	waitFor(t, 2*time.Second, "merged response count", func() bool {
		feed := co.Collector()
		return feed != nil && feed.GlobalResponseSnapshot().Summary().Count == want.Count
	})
	feed := co.Collector()
	if got := feed.GlobalResponseSnapshot().Summary(); got != want {
		t.Fatalf("merged response digest %v != workers' %v", got, want)
	}
	var winResp int64
	for _, w := range feed.Windows() {
		winResp += w.Resp.Count
	}
	if winResp == 0 || winResp > want.Count {
		t.Fatalf("merged windows hold %d responses of %d", winResp, want.Count)
	}
}

// TestClusterRateFanOutAndRebalance drives the dynamic-control path: an
// aggregate rate splits evenly across live workers, and a departing worker's
// share moves to the survivors without stalling the merged feed.
func TestClusterRateFanOutAndRebalance(t *testing.T) {
	co, addr := testCoordinator(t)

	mkWorker := func(name string) (m *core.Manager, cancel context.CancelFunc, done chan struct{}) {
		m, closeDB := newWorkerManager(t, name, 10*time.Second, 1, 0)
		t.Cleanup(closeDB)
		ctx, cancelCtx := context.WithCancel(context.Background())
		ch := make(chan struct{})
		go func() {
			defer close(ch)
			_ = cluster.RunWorker(ctx, m, cluster.WorkerOptions{Addr: addr, Name: name, Benchmark: "ycsb", DB: "gomvcc"})
		}()
		return m, cancelCtx, ch
	}
	m1, cancel1, done1 := mkWorker("r1")
	m2, cancel2, done2 := mkWorker("r2")
	defer func() {
		cancel1()
		cancel2()
		<-done1
		<-done2
	}()

	waitFor(t, 5*time.Second, "both workers connected", func() bool {
		st := co.Status()
		n := 0
		for _, w := range st.Workers {
			if w.Connected {
				n++
			}
		}
		return n == 2
	})

	co.SetRate(300)
	waitFor(t, 2*time.Second, "rate share fan-out", func() bool {
		return m1.Rate() == 150 && m2.Rate() == 150
	})

	// Kill worker 1 (context cancel closes its connection): its share must
	// land on worker 2 within roughly a heartbeat.
	feed := co.Collector()
	windowsBefore := len(feed.Windows())
	cancel1()
	<-done1
	waitFor(t, 2*time.Second, "share rebalance to survivor", func() bool {
		return m2.Rate() == 300
	})
	// The merged feed kept rotating while the cluster shrank.
	waitFor(t, 2*time.Second, "merged feed still rotating", func() bool {
		return len(feed.Windows()) > windowsBefore
	})

	// Pause fan-out reaches the survivor.
	co.SetPaused(true)
	waitFor(t, 2*time.Second, "pause fan-out", func() bool { return m2.Paused() })
	co.SetPaused(false)
	waitFor(t, 2*time.Second, "resume fan-out", func() bool { return !m2.Paused() })
}

// TestRemoteEngineSession drives a dbdriver connection against an engine in
// "another process" (same process, real TCP): DDL, DML, queries, and
// transaction control all round-trip, including the autocommit path.
func TestRemoteEngineSession(t *testing.T) {
	db, err := dbdriver.Open("gomvcc")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setup := db.Connect()
	if _, err := setup.Exec("CREATE TABLE kv (k INT NOT NULL, v VARCHAR(20), PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}
	if err := setup.Close(); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	es := cluster.ServeEngine(ln, db)
	defer es.Close()

	dialer, err := cluster.DialRemoteEngine(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rdb := dbdriver.OpenRemote(dialer)
	defer rdb.Close()
	if !rdb.Remote() {
		t.Fatal("OpenRemote produced a non-remote DB")
	}
	if got := rdb.Personality().Dialect; got != db.Personality().Dialect {
		t.Fatalf("remote personality dialect %q != %q", got, db.Personality().Dialect)
	}

	conn := rdb.Connect()
	defer conn.Close()
	if _, err := conn.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", 1, "one"); err != nil {
		t.Fatal(err)
	}
	// Explicit transaction: insert + rollback leaves no row.
	if err := conn.Begin(); err != nil {
		t.Fatal(err)
	}
	if !conn.InTxn() {
		t.Fatal("InTxn false inside transaction")
	}
	if _, err := conn.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", 2, "two"); err != nil {
		t.Fatal(err)
	}
	if err := conn.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Prepared statements re-ship SQL client-side.
	st, err := conn.Prepare("SELECT v FROM kv WHERE k = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "one" {
		t.Fatalf("point read: %+v", res.Rows)
	}
	if res, err := conn.Query("SELECT v FROM kv WHERE k = ?", 2); err != nil || len(res.Rows) != 0 {
		t.Fatalf("rolled-back row visible: rows=%v err=%v", res, err)
	}
	row, err := conn.QueryRow("SELECT v FROM kv WHERE k = ?", 1)
	if err != nil || row == nil || row[0].Str() != "one" {
		t.Fatalf("QueryRow: row=%v err=%v", row, err)
	}
	// Engine-side errors come back as errors, not dead connections.
	if _, err := conn.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", 1, "dup"); err == nil {
		t.Fatal("duplicate key accepted over the wire")
	}
	// ...and the session is still usable afterwards.
	if _, err := conn.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", 3, "three"); err != nil {
		t.Fatal(err)
	}
	if es.Sessions() == 0 {
		t.Fatal("server reports no open sessions")
	}
}

// TestWorkerReconnect kills the coordinator-side connection and verifies the
// worker redials with backoff and resumes its cumulative stream on the same
// worker id (no double counting).
func TestWorkerReconnect(t *testing.T) {
	co, addr := testCoordinator(t)
	m, closeDB := newWorkerManager(t, "rw", 3*time.Second, 1, 0)
	t.Cleanup(closeDB)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = cluster.RunWorker(ctx, m, cluster.WorkerOptions{Addr: addr, Name: "rw", Benchmark: "ycsb", DB: "gomvcc"})
	}()
	waitFor(t, 5*time.Second, "worker attached", func() bool {
		st := co.Status()
		return len(st.Workers) == 1 && st.Workers[0].Connected
	})
	id := co.Status().Workers[0].ID
	// Force a disconnect from the coordinator side.
	co.EvictWorker(id)
	waitFor(t, 5*time.Second, "worker re-attached after eviction", func() bool {
		st := co.Status()
		return len(st.Workers) == 1 && st.Workers[0].ID == id && st.Workers[0].Connected
	})
	<-done
	// After the run: exact totals despite the reconnect.
	waitFor(t, 2*time.Second, "exact totals after reconnect", func() bool {
		return co.Status().Committed == m.Collector().Committed()
	})
	if st := co.Status(); st.DriftEvents != 0 {
		t.Fatalf("reconnect produced %d drift events", st.DriftEvents)
	}
}
