package consistency

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"benchpress/internal/dbdriver"
	"benchpress/internal/sqldb"
	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/wal"
)

// crashBase is one arm's baseline run: one session, write-through WAL, no
// kill. -consistency.long scales it to 1200 transactions.
func crashBase(t *testing.T, disk bool) CrashConfig {
	t.Helper()
	cfg := CrashConfig{Disk: disk, Seed: harnessSeed(t), Budget: -1}
	if *long {
		cfg.Txns = 1200
	}
	return cfg
}

func runCrash(t *testing.T, cfg CrashConfig) *CrashResult {
	t.Helper()
	res, err := RunCrash(cfg)
	if err != nil {
		t.Fatalf("budget %d: %v", cfg.Budget, err)
	}
	return res
}

// recoverAndConform recovers a run, checks the durability contract against
// attempts and, for a disk run with conformTxns > 0, runs the
// isolation-conformance oracle on the recovered engine, proving it is a fully
// working database, not just a readable one. It returns the number of torn
// pages recovery rebuilt.
func recoverAndConform(t *testing.T, res *CrashResult, attempts []CommitAttempt, conformTxns int, seed int64) int {
	t.Helper()
	eng, err := VerifyCrash(res, attempts)
	if err != nil {
		t.Fatalf("recovering %d durable bytes: %v", res.Used, err)
	}
	if eng == nil {
		return 0
	}
	torn := len(eng.DiskRecovery().TornPages)
	if conformTxns == 0 {
		eng.Close()
		return torn
	}
	// The conformance workload uses its own table (kv), so the recovered
	// crashkv rows ride along untouched; ChurnKeys is 0 because the locking
	// engine has no phantom protection on absent keys. Run closes the engine.
	h, err := Run(Config{
		Personality: "golock-disk-recovered",
		Seed:        seed,
		Txns:        conformTxns,
		ChurnKeys:   0,
		Open: func() (*dbdriver.DB, error) {
			return dbdriver.Wrap(dbdriver.Personality{
				Name: "golock-disk-recovered", Mode: txn.Locking,
			}, eng), nil
		},
	})
	if err != nil {
		t.Fatalf("conformance on recovered engine: %v", err)
	}
	if r := CheckSerializable(h); !r.Empty() {
		for _, v := range r.Violations {
			t.Errorf("recovered-engine %s: txn %d op %d: %s", v.Class, v.TxnID, v.OpIdx, v.Detail)
		}
		t.FailNow()
	}
	return torn
}

// TestBudgetWriter pins the metered WAL sink's device-death contract: the
// write that crosses the budget lands its granted prefix and fails with
// ErrKilled, every later write is rejected, and the accepted bytes are the
// surviving image.
func TestBudgetWriter(t *testing.T) {
	w := &budgetWriter{budget: &crashBudget{limit: 10}}
	if n, err := w.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("first write: n=%d err=%v", n, err)
	}
	if n, err := w.Write([]byte("worldwide")); n != 5 || err != ErrKilled {
		t.Fatalf("budget-crossing write: n=%d err=%v, want 5, ErrKilled", n, err)
	}
	if n, err := w.Write([]byte("x")); n != 0 || err != ErrKilled {
		t.Fatalf("post-kill write: n=%d err=%v", n, err)
	}
	if got := string(w.buf); got != "helloworld" {
		t.Fatalf("surviving image %q, want %q", got, "helloworld")
	}
	if !w.budget.killed() {
		t.Fatal("budget not marked killed")
	}
}

// checkClean is one arm's no-crash baseline: nothing is uncertain, the
// workload both commits and rolls back, and every acked commit wins.
func checkClean(t *testing.T, cfg CrashConfig) *CrashResult {
	t.Helper()
	res := runCrash(t, cfg)
	if res.Killed {
		t.Fatal("unlimited budget run reported a kill")
	}
	var acked, rolledBack int
	for _, att := range res.Attempts {
		if att.Acked {
			acked++
		}
		if att.RolledBack {
			rolledBack++
		}
		if att.Uncertain {
			t.Fatalf("txn %d uncertain without a crash", att.ID)
		}
	}
	if acked == 0 || rolledBack == 0 {
		t.Fatalf("workload shape degenerate: acked=%d rolledBack=%d", acked, rolledBack)
	}
	recoverAndConform(t, res, res.Attempts, 0, cfg.Seed)
	return res
}

func TestCrashRecoveryClean(t *testing.T) { checkClean(t, crashBase(t, false)) }

func TestDiskCrashClean(t *testing.T) {
	if res := checkClean(t, crashBase(t, true)); len(res.PageWrites) == 0 {
		t.Fatal("no page flushes: the pool never wrote the device")
	}
}

// checkDeterminism pins the property the sweeps stand on: the same seed and
// budget reproduce the same WAL bytes and the same device image.
func checkDeterminism(t *testing.T, cfg CrashConfig) {
	t.Helper()
	a, b := runCrash(t, cfg), runCrash(t, cfg)
	if !bytes.Equal(a.Image, b.Image) {
		t.Fatalf("same seed+budget produced different WAL images (%d vs %d bytes)", len(a.Image), len(b.Image))
	}
	if a.Device == nil {
		return
	}
	ai, bi := a.Device.Image(), b.Device.Image()
	if len(ai) != len(bi) {
		t.Fatalf("device page counts differ: %d vs %d", len(ai), len(bi))
	}
	for i := range ai {
		if !bytes.Equal(ai[i], bi[i]) {
			t.Fatalf("device page %d differs between identical runs", i)
		}
	}
}

func TestCrashDeterminism(t *testing.T) {
	cfg := crashBase(t, false)
	cfg.Budget = 777
	checkDeterminism(t, cfg)
}

func TestDiskCrashDeterminism(t *testing.T) {
	cfg := crashBase(t, true)
	cfg.Budget = 9000
	checkDeterminism(t, cfg)
}

// killPoints aims budgets across a dry run's durable stream, from the schema
// floor to its end: fractions+1 evenly spaced cuts, each also 3 bytes short
// (mid-frame: record headers are longer than 3 bytes). On the disk arm it
// adds tears inside the first, a middle and the last heap page write (one
// byte in, half a page, one byte short) and inside the first and last
// checkpoint record.
func killPoints(t *testing.T, dry *CrashResult, fractions int) []int64 {
	t.Helper()
	floor, total := dry.SchemaFloor, dry.Used
	if total <= floor {
		t.Fatalf("degenerate stream: total=%d floor=%d", total, floor)
	}
	var points []int64
	add := func(b int64) {
		if b >= floor && b <= total {
			points = append(points, b)
		}
	}
	for i := 0; i <= fractions; i++ {
		b := floor + (total-floor)*int64(i)/int64(fractions)
		add(b)
		add(b - 3)
	}
	if dry.Device == nil {
		return points
	}
	var pw []int64
	for _, off := range dry.PageWrites {
		if off > floor {
			pw = append(pw, off)
		}
	}
	var ckpts [][2]int64
	for _, cw := range dry.kindWrites(wal.KindCheckpoint) {
		if cw[0] > floor {
			ckpts = append(ckpts, cw)
		}
	}
	if len(pw) == 0 || len(ckpts) == 0 {
		t.Fatalf("nothing to tear after the schema floor: %d page writes, %d checkpoints", len(pw), len(ckpts))
	}
	for _, off := range []int64{pw[0], pw[len(pw)/2], pw[len(pw)-1]} {
		add(off + 1)
		add(off + heap.PageSize/2)
		add(off + heap.PageSize - 1)
	}
	for _, cw := range [][2]int64{ckpts[0], ckpts[len(ckpts)-1]} {
		add(cw[0] + 1)
		add(cw[0] + cw[1]/2)
		add(cw[0] + cw[1] - 1)
	}
	return points
}

// sweep is the torture core shared by both arms: the seeded workload runs
// against budgets aimed by killPoints, and every crash must recover to an
// image that honors the durability contract (VerifyCrash); a recovered disk
// engine must also pass the isolation-conformance oracle. It returns the
// number of torn pages recovery rebuilt.
func sweep(t *testing.T, cfg CrashConfig, fractions int) int {
	t.Helper()
	dry := runCrash(t, cfg)
	points := killPoints(t, dry, fractions)
	if len(points) < 15 {
		t.Fatalf("only %d kill points; the sweep needs at least 15", len(points))
	}
	t.Logf("%d kill points over %d durable bytes", len(points), dry.Used)
	torn := 0
	for _, b := range points {
		cfg.Budget = b
		res := runCrash(t, cfg)
		if res.Killed != (b < dry.Used) {
			t.Fatalf("budget %d of %d: killed=%v", b, dry.Used, res.Killed)
		}
		torn += recoverAndConform(t, res, res.Attempts, 60, cfg.Seed+b)
	}
	return torn
}

// TestCrashKillPointSweep sweeps the RAM arm: only the WAL is metered and it
// writes through, so every acked commit's record must survive and no
// uncertain one may.
func TestCrashKillPointSweep(t *testing.T) {
	fractions := 14
	if *long {
		fractions = 60
	}
	sweep(t, crashBase(t, false), fractions)
}

// TestDiskCrashKillPointSweep sweeps the disk arm, WAL and heap device
// metered together, including cuts inside page flushes and checkpoints.
func TestDiskCrashKillPointSweep(t *testing.T) {
	fractions := 10
	if *long {
		fractions = 40
	}
	if sweep(t, crashBase(t, true), fractions) == 0 {
		t.Fatal("no kill point produced a torn page; mid-page-flush cuts are not biting")
	}
}

// TestCrashGroupCommit tortures the RAM arm's group-commit path with
// concurrent sessions: a died device must fail every waiter of the affected
// generation (no acknowledged-but-lost commits), while complete records from
// the partially flushed generation are attributed to the uncertainty window.
func TestCrashGroupCommit(t *testing.T) {
	cfg := CrashConfig{Policy: wal.SyncGroup, Seed: harnessSeed(t), Workers: 4, Budget: -1}
	base := runCrash(t, cfg)
	recoverAndConform(t, base, base.Attempts, 0, 0)
	total := int64(len(base.Image))
	budgets := []int64{total / 5, total / 2, total * 4 / 5}
	if *long {
		for i := int64(1); i < 20; i++ {
			budgets = append(budgets, total*i/20-1)
		}
	}
	for _, b := range budgets {
		cfg.Budget = b
		res := runCrash(t, cfg)
		recoverAndConform(t, res, res.Attempts, 0, 0)
	}
}

// TestDiskCrashChainedRestarts crashes, recovers, keeps running on the
// recovered image, crashes again, and verifies the final recovery against
// the cumulative history. This is also the regression net for transaction-id
// reuse across restarts: a second-life transaction must never be able to
// borrow a first-life commit record.
func TestDiskCrashChainedRestarts(t *testing.T) {
	cfg := crashBase(t, true)
	dry1 := runCrash(t, cfg)
	cfg.Budget = dry1.SchemaFloor + (dry1.Used-dry1.SchemaFloor)*3/5
	run1 := runCrash(t, cfg)
	if !run1.Killed {
		t.Fatal("first run did not crash")
	}

	// Second life: reopen over the surviving image (recovery runs inside)
	// and crash again at a budget found by a chained dry run. The dry run
	// mutates the device via recovery write-back, so it runs on a deep copy
	// to keep the real chain pristine.
	dryDev := heap.NewMemDevice()
	for id, pg := range run1.Device.Image() {
		if pg != nil {
			if err := dryDev.WritePage(uint32(id), pg); err != nil {
				t.Fatal(err)
			}
		}
	}
	chain := CrashConfig{Disk: true, Seed: cfg.Seed + 1, Budget: -1,
		From: &CrashResult{Device: dryDev, Image: run1.Image}}
	dry2 := runCrash(t, chain)
	chain.From = run1
	chain.Budget = dry2.SchemaFloor + (dry2.Used-dry2.SchemaFloor)*3/5
	run2 := runCrash(t, chain)
	if !run2.Killed {
		t.Fatal("second run did not crash")
	}

	recoverAndConform(t, run2, MergeAttempts(run1.Attempts, run2.Attempts), 120, cfg.Seed+2)
}

// holdFirstWrite parks the first sink write until release closes, closing
// held when that write arrives.
type holdFirstWrite struct {
	w       io.Writer
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

func (h *holdFirstWrite) Write(p []byte) (int, error) {
	h.once.Do(func() {
		close(h.held)
		<-h.release
	})
	return h.w.Write(p)
}

// TestDiskCrashCheckpointInFlight kills the engine inside the window the
// commit pipeline opens: a checkpoint logged while another transaction's
// update records are sequenced but not applied. The order is forced, not
// timed: the sink parks its first write, which holds transaction B between
// logging and applying, and lets it go only once A — the commit that takes
// the checkpoint — has logged its records. The budget dies after both acks,
// before the pool flushes either page, and recovery must redo both from the
// checkpoint's dirty page table: the pool alone had no dirty page to offer.
func TestDiskCrashCheckpointInFlight(t *testing.T) {
	mem := heap.NewMemDevice()
	var life1 bytes.Buffer
	eng, err := sqldb.OpenDisk(sqldb.Config{
		Name: "disk-crash", Mode: txn.Locking, WALPolicy: wal.SyncNone,
		DiskDevice: mem, WALSink: &life1, BufferPoolPages: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.Session()
	if _, err := sess.Exec(`CREATE TABLE crashkv (
		k BIGINT NOT NULL, v BIGINT, pad VARCHAR(200), PRIMARY KEY (k))`); err != nil {
		t.Fatal(err)
	}
	// 40 rows of ~190 bytes span two pages, so keys 0 and 39 sit apart.
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	load := CommitAttempt{ID: sess.TxnInfo().ID, Acked: true}
	for k := int64(0); k < 40; k++ {
		op := CrashOp{Kind: txn.WriteInsert, K: k, V: MakeTag(load.ID, int(k))}
		if _, err := sess.Exec("INSERT INTO crashkv (k, v, pad) VALUES (?, ?, ?)", k, op.V, crashPad(op.V)); err != nil {
			t.Fatal(err)
		}
		load.Ops = append(load.Ops, op)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	eng.Close() // clean: the next life starts with every page on the device

	budget := &crashBudget{limit: -1}
	wal2 := &budgetWriter{budget: budget}
	sink := &holdFirstWrite{w: wal2, held: make(chan struct{}), release: make(chan struct{})}
	eng, err = sqldb.OpenDisk(sqldb.Config{
		Name: "disk-crash", Mode: txn.Locking,
		WALPolicy: wal.SyncGroup, GroupCommitInterval: 200 * time.Microsecond,
		DiskDevice: &budgetDevice{mem: mem, budget: budget}, DiskWAL: life1.Bytes(), WALSink: sink,
		BufferPoolPages: 8, CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		att CommitAttempt
		err error
	}
	update := func(k int64) <-chan result {
		out := make(chan result, 1)
		go func() {
			s := eng.Session()
			if err := s.Begin(); err != nil {
				out <- result{err: err}
				return
			}
			id := s.TxnInfo().ID
			op := CrashOp{Kind: txn.WriteUpdate, K: k, V: MakeTag(id, 0)}
			if _, err := s.Exec("UPDATE crashkv SET v = ?, pad = ? WHERE k = ?", op.V, crashPad(op.V), k); err != nil {
				out <- result{err: err}
				return
			}
			err := s.Commit()
			out <- result{CommitAttempt{ID: id, Ops: []CrashOp{op}, Acked: err == nil}, err}
		}()
		return out
	}

	logged := eng.WAL().Records()
	b := update(0) // commit 1: its group's write parks in the sink
	<-sink.held
	a := update(39) // commit 2 takes the checkpoint while B is unapplied
	// A's update, checkpoint and commit record join B's two.
	for deadline := time.Now().Add(10 * time.Second); eng.WAL().Records() < logged+5; runtime.Gosched() {
		if time.Now().After(deadline) {
			close(sink.release)
			t.Fatal("A never logged its records while B awaited its flush: commits are serialized")
		}
	}
	close(sink.release)
	rb, ra := <-b, <-a
	if rb.err != nil || ra.err != nil {
		t.Fatalf("commits: B %v, A %v", rb.err, ra.err)
	}

	// Kill after both acks: the shutdown's page flushes never land.
	budget.kill()
	eng.Close()

	res := &CrashResult{Device: mem, Image: append(append([]byte(nil), life1.Bytes()...), wal2.buf...)}
	rec, err := VerifyCrash(res, []CommitAttempt{load, rb.att, ra.att})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if n := rec.DiskRecovery().Redone; n != 2 {
		t.Fatalf("recovery redid %d updates, want B's and A's: the kill did not land before their page flushes", n)
	}
}
