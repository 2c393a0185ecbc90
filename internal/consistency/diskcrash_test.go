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

// recoverVerifyConform recovers a crash run's disk image, checks the
// durability contract, optionally runs the isolation-conformance oracle on
// the recovered engine (proving it is a fully working database, not just a
// readable one), and returns the number of torn pages recovery rebuilt.
func recoverVerifyConform(t *testing.T, res *DiskCrashResult, attempts []CommitAttempt, conformTxns int, seed int64) int {
	t.Helper()
	eng, err := RecoverDiskCrash(res, 8)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	torn := len(eng.DiskRecovery().TornPages)
	if err := VerifyDiskCrash(res, attempts, eng); err != nil {
		eng.Close()
		t.Fatal(err)
	}
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

// TestDiskCrashClean is the no-crash baseline: with an unlimited budget every
// acked commit wins recovery and the recovered contents match the model.
func TestDiskCrashClean(t *testing.T) {
	res, err := RunDiskCrash(DiskCrashConfig{Seed: harnessSeed(t), Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Killed {
		t.Fatal("unlimited budget run reported a kill")
	}
	var acked, rolledBack int
	for i := range res.Attempts {
		if res.Attempts[i].Acked {
			acked++
		}
		if res.Attempts[i].RolledBack {
			rolledBack++
		}
		if res.Attempts[i].Uncertain {
			t.Fatalf("txn %d uncertain without a crash", res.Attempts[i].ID)
		}
	}
	if acked == 0 || rolledBack == 0 {
		t.Fatalf("workload shape degenerate: acked=%d rolledBack=%d", acked, rolledBack)
	}
	if len(res.PageWrites) == 0 {
		t.Fatal("no page flushes: the pool never wrote the device")
	}
	recoverVerifyConform(t, res, res.Attempts, 0, harnessSeed(t))
}

// TestDiskCrashDeterminism pins the property the sweep stands on: the same
// seed and budget reproduce the same WAL bytes and the same device image.
func TestDiskCrashDeterminism(t *testing.T) {
	cfg := DiskCrashConfig{Seed: harnessSeed(t), Budget: 9000}
	a, err := RunDiskCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDiskCrash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.WALImage, b.WALImage) {
		t.Fatalf("same seed+budget produced different WAL images (%d vs %d bytes)",
			len(a.WALImage), len(b.WALImage))
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

// TestDiskCrashKillPointSweep is the torture core: the seeded workload runs
// against budgets swept across the whole durable byte stream — evenly spaced
// cuts (aligned and mid-frame), cuts inside heap page flushes, and cuts
// inside checkpoint records. Every kill point must recover to an image that
// honors acked ⊆ winners ⊆ acked ∪ uncertain with byte-exact contents, and
// the recovered engine must pass the isolation-conformance oracle.
func TestDiskCrashKillPointSweep(t *testing.T) {
	seed := harnessSeed(t)
	dry, err := RunDiskCrash(DiskCrashConfig{Seed: seed, Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	total, floor := dry.Used, dry.SchemaFloor
	if total <= floor {
		t.Fatalf("degenerate stream: total=%d floor=%d", total, floor)
	}

	var points []int64
	add := func(b int64) {
		if b > floor && b < total {
			points = append(points, b)
		}
	}
	fractions := 10
	if *long {
		fractions = 40
	}
	for i := 1; i <= fractions; i++ {
		b := floor + (total-floor)*int64(i)/int64(fractions)
		add(b)
		add(b - 3) // mid-frame: WAL record headers are longer than 3 bytes
	}
	// Mid-page-flush tears: cut inside the first, a middle, and the last
	// page write of the dry run.
	var pw []int64
	for _, off := range dry.PageWrites {
		if off > floor {
			pw = append(pw, off)
		}
	}
	if len(pw) == 0 {
		t.Fatal("no page flushes after the schema floor to tear")
	}
	for _, off := range []int64{pw[0], pw[len(pw)/2], pw[len(pw)-1]} {
		add(off + 1)
		add(off + heap.PageSize/2)
		add(off + heap.PageSize - 1)
	}
	// Mid-checkpoint tears: cut inside checkpoint record frames.
	ckpts := [][2]int64{}
	for _, cw := range dry.CheckpointWrites() {
		if cw[0] > floor {
			ckpts = append(ckpts, cw)
		}
	}
	if len(ckpts) == 0 {
		t.Fatal("no checkpoints after the schema floor to tear")
	}
	for _, cw := range []([2]int64){ckpts[0], ckpts[len(ckpts)-1]} {
		add(cw[0] + 1)
		add(cw[0] + cw[1]/2)
		add(cw[0] + cw[1] - 1)
	}
	if len(points) < 15 {
		t.Fatalf("only %d kill points; the sweep needs at least 15", len(points))
	}

	tornTotal := 0
	for _, b := range points {
		res, err := RunDiskCrash(DiskCrashConfig{Seed: seed, Budget: b})
		if err != nil {
			t.Fatalf("budget %d: %v", b, err)
		}
		if !res.Killed {
			t.Fatalf("budget %d below total %d did not kill", b, total)
		}
		tornTotal += recoverVerifyConform(t, res, res.Attempts, 60, seed+b)
	}
	if tornTotal == 0 {
		t.Fatal("no kill point produced a torn page; mid-page-flush cuts are not biting")
	}
}

// TestDiskCrashChainedRestarts crashes, recovers, keeps running on the
// recovered image, crashes again, and verifies the final recovery against
// the cumulative history. This is also the regression net for transaction-id
// reuse across restarts: a second-life transaction must never be able to
// borrow a first-life commit record.
func TestDiskCrashChainedRestarts(t *testing.T) {
	seed := harnessSeed(t)
	dry1, err := RunDiskCrash(DiskCrashConfig{Seed: seed, Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	run1, err := RunDiskCrash(DiskCrashConfig{
		Seed:   seed,
		Budget: dry1.SchemaFloor + (dry1.Used-dry1.SchemaFloor)*3/5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !run1.Killed {
		t.Fatal("first run did not crash")
	}

	// Second life: reopen over the surviving image (recovery runs inside)
	// and crash again at a budget found by a chained dry run.
	chain := DiskCrashConfig{Seed: seed + 1, Device: run1.Device, WAL: run1.WALImage}
	// The chained dry run mutates the device via recovery write-back, so run
	// it on a deep copy to keep the real chain pristine.
	dryDev := heap.NewMemDevice()
	for id, pg := range run1.Device.Image() {
		if pg != nil {
			if err := dryDev.WritePage(uint32(id), pg); err != nil {
				t.Fatal(err)
			}
		}
	}
	dry2, err := RunDiskCrash(DiskCrashConfig{Seed: seed + 1, Device: dryDev, WAL: run1.WALImage, Budget: -1})
	if err != nil {
		t.Fatal(err)
	}
	chain.Budget = dry2.SchemaFloor + (dry2.Used-dry2.SchemaFloor)*3/5
	run2, err := RunDiskCrash(chain)
	if err != nil {
		t.Fatal(err)
	}
	if !run2.Killed {
		t.Fatal("second run did not crash")
	}

	recoverVerifyConform(t, run2, MergeAttempts(run1.Attempts, run2.Attempts), 120, seed+2)
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
		op := WalOp{Kind: byte(txn.WriteInsert), K: k, V: MakeTag(load.ID, int(k))}
		if _, err := sess.Exec("INSERT INTO crashkv (k, v, pad) VALUES (?, ?, ?)", k, op.V, diskCrashPad(op.V)); err != nil {
			t.Fatal(err)
		}
		load.Ops = append(load.Ops, op)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	eng.Close() // clean: the next life starts with every page on the device

	budget := newCrashBudget(-1)
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
			op := WalOp{Kind: byte(txn.WriteUpdate), K: k, V: MakeTag(id, 0)}
			if _, err := s.Exec("UPDATE crashkv SET v = ?, pad = ? WHERE k = ?", op.V, diskCrashPad(op.V), k); err != nil {
				out <- result{err: err}
				return
			}
			err := s.Commit()
			out <- result{CommitAttempt{ID: id, Ops: []WalOp{op}, Acked: err == nil}, err}
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
	budget.mu.Lock()
	budget.dead = true
	budget.mu.Unlock()
	eng.Close()

	res := &DiskCrashResult{Device: mem, WALImage: append(append([]byte(nil), life1.Bytes()...), wal2.buf...)}
	rec, err := RecoverDiskCrash(res, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := VerifyDiskCrash(res, []CommitAttempt{load, rb.att, ra.att}, rec); err != nil {
		t.Fatal(err)
	}
	if n := rec.DiskRecovery().Redone; n != 2 {
		t.Fatalf("recovery redid %d updates, want B's and A's: the kill did not land before their page flushes", n)
	}
}
