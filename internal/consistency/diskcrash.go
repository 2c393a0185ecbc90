package consistency

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"benchpress/internal/sqldb"
	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/wal"
)

// Disk-resident crash torture. Where crash.go tears only the log of a RAM
// engine and replays the records, this harness tortures the full recovery
// path: a disk-resident engine (slotted-page heap behind a buffer pool,
// ARIES-style physical logging) runs a seeded workload while ONE shared byte
// budget meters every durable write — WAL appends and heap page flushes
// alike. The write that crosses the budget is torn (a partial frame in the
// log, a half-written page on the device) and everything after it is
// rejected, exactly as if the machine lost power at that byte. The surviving
// WAL image and device then go through real recovery (sqldb.OpenDisk), and
// the recovered engine is checked against the durability contract:
//
//	acked ⊆ winners ⊆ acked ∪ uncertain
//
// plus byte-exact row contents (every winner's writes, nothing else) and a
// fully verifiable page image. Because the workload is single-sessioned and
// the WAL policy is write-through, the same seed and budget reproduce the
// same byte stream, making a kill-point sweep across the whole stream —
// including cuts inside page flushes and checkpoint records — deterministic.

// crashBudget is the shared byte meter: WAL writes and device page writes
// draw from the same pool, so a kill point is a single global byte offset in
// the engine's combined durable-write stream.
type crashBudget struct {
	mu    sync.Mutex
	limit int64 // total bytes allowed; negative = unlimited
	used  int64
	dead  bool
}

func newCrashBudget(limit int64) *crashBudget { return &crashBudget{limit: limit} }

// take reserves n bytes, returning the global offset at which the write
// begins, the bytes granted, and whether the full request fit. The first
// short grant kills the budget forever.
func (b *crashBudget) take(n int) (start int64, granted int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	start = b.used
	if b.dead {
		return start, 0, false
	}
	if b.limit < 0 || b.used+int64(n) <= b.limit {
		b.used += int64(n)
		return start, n, true
	}
	granted = int(b.limit - b.used)
	b.used = b.limit
	b.dead = true
	return start, granted, false
}

func (b *crashBudget) killed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dead
}

func (b *crashBudget) usedBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// sinkWrite records one accepted WAL sink write. Under write-through policy
// every write is exactly one record frame, so the harness can classify the
// frame (update, commit, checkpoint) from its payload's first byte.
type sinkWrite struct {
	global int64 // offset in the shared budget stream
	local  int   // offset within this run's sink bytes
	n      int   // bytes accepted (the full frame unless this write tore)
}

// budgetWriter is the WAL sink: it charges the shared budget and keeps the
// accepted bytes as the surviving log image.
type budgetWriter struct {
	budget *crashBudget
	mu     sync.Mutex
	buf    []byte
	writes []sinkWrite
}

func (w *budgetWriter) Write(p []byte) (int, error) {
	start, granted, ok := w.budget.take(len(p))
	w.mu.Lock()
	if granted > 0 {
		w.writes = append(w.writes, sinkWrite{global: start, local: len(w.buf), n: granted})
		w.buf = append(w.buf, p[:granted]...)
	}
	w.mu.Unlock()
	if !ok {
		return granted, ErrKilled
	}
	return len(p), nil
}

// budgetDevice charges heap page writes against the shared budget, tearing
// the crossing write into the underlying MemDevice (the granted prefix lands,
// the rest never does) and rejecting everything after.
type budgetDevice struct {
	mem    *heap.MemDevice
	budget *crashBudget
	mu     sync.Mutex
	writes []int64 // global offsets at which page writes began
}

func (d *budgetDevice) ReadPage(id uint32, buf []byte) error { return d.mem.ReadPage(id, buf) }

func (d *budgetDevice) WritePage(id uint32, buf []byte) error {
	start, granted, ok := d.budget.take(heap.PageSize)
	d.mu.Lock()
	d.writes = append(d.writes, start)
	d.mu.Unlock()
	if granted > 0 {
		if err := d.mem.WritePartial(id, buf, granted); err != nil {
			return err
		}
	}
	if !ok {
		return ErrKilled
	}
	return nil
}

func (d *budgetDevice) Pages() (uint32, error) { return d.mem.Pages() }

func (d *budgetDevice) Sync() error {
	if d.budget.killed() {
		return ErrKilled
	}
	return nil
}

func (d *budgetDevice) Close() error { return nil }

// DiskCrashConfig parameterizes one disk-resident crash-torture run.
type DiskCrashConfig struct {
	// Seed drives the workload.
	Seed int64
	// Txns is the number of transactions to attempt.
	Txns int
	// Budget is the shared byte budget across WAL appends and heap page
	// writes (negative = never dies).
	Budget int64
	// PoolPages sizes the buffer pool; the default of 2 frames keeps the
	// working set larger than the pool so page flushes happen mid-run, not
	// just at shutdown.
	PoolPages int
	// CheckpointEvery is the fuzzy-checkpoint cadence in commits; the
	// default of 10 puts several checkpoints inside a run.
	CheckpointEvery int
	// Device and WAL resume a previous run's surviving image (chained
	// restarts through repeated crashes); nil starts fresh.
	Device *heap.MemDevice
	// WAL is the surviving log image accompanying Device.
	WAL []byte
}

func (c DiskCrashConfig) withDefaults() DiskCrashConfig {
	if c.Txns == 0 {
		c.Txns = 140
	}
	if c.PoolPages == 0 {
		c.PoolPages = 2
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10
	}
	return c
}

// DiskCrashResult is the outcome of one disk crash-torture run.
type DiskCrashResult struct {
	// Attempts records every transaction with its expected write set and
	// commit outcome (acked, uncertain, or rolled back).
	Attempts []CommitAttempt
	// WALImage is the surviving log: the clean prefix of the run's input
	// plus every byte the sink accepted.
	WALImage []byte
	// Device is the surviving heap device, torn pages and all.
	Device *heap.MemDevice
	// Killed reports whether the budget ran out.
	Killed bool
	// Used is the total durable bytes accepted by the run.
	Used int64
	// SchemaFloor is the budget level at which the schema (and any prior
	// recovery write-back) was durable; kill points below it crash before
	// the workload starts and are not interesting to sweep.
	SchemaFloor int64
	// PageWrites holds the global offset at which each heap page write
	// began: a budget inside (off, off+PageSize) tears that very write.
	PageWrites []int64

	sinkBytes []byte
	walWrites []sinkWrite
}

// CheckpointWrites returns the global offset and accepted length of every
// checkpoint record frame the run wrote, for aiming mid-checkpoint tears.
func (r *DiskCrashResult) CheckpointWrites() [][2]int64 {
	var out [][2]int64
	for _, w := range r.walWrites {
		if w.n <= wal.PayloadHeaderSize {
			continue // torn before the payload: kind unknowable
		}
		if wal.RecKind(r.sinkBytes[w.local+wal.PayloadHeaderSize]) == wal.KindCheckpoint {
			out = append(out, [2]int64{w.global, int64(w.n)})
		}
	}
	return out
}

// diskCrashPad derives the pad column deterministically from the row value,
// so content verification can check recovered rows byte-for-byte without the
// workload tracking pad strings.
func diskCrashPad(v int64) string {
	b := make([]byte, 160)
	for i := range b {
		b[i] = 'a' + byte((v+int64(i))%26)
	}
	return string(b)
}

// RunDiskCrash opens a disk-resident engine over the budgeted device and WAL
// sink (recovering any prior image first), drives the seeded workload on
// table crashkv, and captures the surviving disk state after the crash. The
// engine runs row-locking mode with write-through WAL on a single session,
// so the durable byte stream is a pure function of seed and budget.
func RunDiskCrash(cfg DiskCrashConfig) (*DiskCrashResult, error) {
	cfg = cfg.withDefaults()
	budget := newCrashBudget(cfg.Budget)
	mem := cfg.Device
	if mem == nil {
		mem = heap.NewMemDevice()
	}
	dev := &budgetDevice{mem: mem, budget: budget}
	sink := &budgetWriter{budget: budget}
	eng, err := sqldb.OpenDisk(sqldb.Config{
		Name:            "disk-crash",
		Mode:            txn.Locking,
		WALPolicy:       wal.SyncNone,
		DiskDevice:      dev,
		DiskWAL:         cfg.WAL,
		WALSink:         sink,
		BufferPoolPages: cfg.PoolPages,
		CheckpointEvery: cfg.CheckpointEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("consistency: disk crash open: %w", err)
	}
	cleanLen := eng.DiskRecovery().CleanWALLen

	res := &DiskCrashResult{Device: mem}
	attempts, runErr := runDiskCrashWorkload(eng, cfg)
	res.Attempts = attempts
	// Close before capturing: the shutdown flush is part of the byte stream
	// (a kill point can land inside it), and nothing may move afterwards.
	eng.Close()
	if runErr != nil {
		return nil, runErr
	}

	res.WALImage = append(append([]byte(nil), cfg.WAL[:cleanLen]...), sink.buf...)
	res.sinkBytes = sink.buf
	res.walWrites = sink.writes
	res.PageWrites = dev.writes
	res.Used = budget.usedBytes()
	res.Killed = budget.killed()
	res.SchemaFloor = res.schemaFloor()
	return res, nil
}

// schemaFloor finds the budget level after which the schema is durable: the
// end of the last system-transaction update frame in the first run, or the
// recovery write-back floor for chained runs (first workload WAL write).
func (r *DiskCrashResult) schemaFloor() int64 {
	for _, w := range r.walWrites {
		if w.n <= wal.PayloadHeaderSize {
			continue
		}
		if wal.RecKind(r.sinkBytes[w.local+wal.PayloadHeaderSize]) == wal.KindCommit {
			// First commit record: everything before it is schema/bootstrap.
			return w.global
		}
	}
	return r.Used
}

// runDiskCrashWorkload drives the seeded single-session workload, tolerating
// commit failures (the crash) but not statement failures (those would be
// engine bugs: statements never touch the durable path).
func runDiskCrashWorkload(eng *sqldb.Engine, cfg DiskCrashConfig) ([]CommitAttempt, error) {
	sess := eng.Session()
	live := map[int64]bool{}
	if !eng.Catalog().HasTable("crashkv") {
		_, err := sess.Exec(`CREATE TABLE crashkv (
			k BIGINT NOT NULL, v BIGINT, pad VARCHAR(200), PRIMARY KEY (k))`)
		if err != nil {
			return nil, fmt.Errorf("consistency: disk crash schema: %w", err)
		}
	} else {
		// Chained run: seed liveness from the recovered table.
		q, err := sess.Query("SELECT k FROM crashkv")
		if err != nil {
			return nil, err
		}
		for _, row := range q.Rows {
			live[row[0].Int()] = true
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var attempts []CommitAttempt
	for i := 0; i < cfg.Txns; i++ {
		if err := sess.Begin(); err != nil {
			return attempts, fmt.Errorf("consistency: disk crash begin: %w", err)
		}
		id := sess.TxnInfo().ID
		att := CommitAttempt{ID: id}
		nops := 1 + rng.Intn(4)
		touched := map[int64]bool{}
		for j := 0; j < nops; j++ {
			key := rng.Int63n(40)
			for touched[key] {
				key = rng.Int63n(40)
			}
			touched[key] = true
			var (
				err error
				op  WalOp
			)
			switch {
			case !live[key]:
				op = WalOp{Kind: byte(txn.WriteInsert), K: key, V: MakeTag(id, j)}
				_, err = sess.Exec("INSERT INTO crashkv (k, v, pad) VALUES (?, ?, ?)",
					key, op.V, diskCrashPad(op.V))
				live[key] = true
			case rng.Intn(100) < 70:
				op = WalOp{Kind: byte(txn.WriteUpdate), K: key, V: MakeTag(id, j)}
				_, err = sess.Exec("UPDATE crashkv SET v = ?, pad = ? WHERE k = ?",
					op.V, diskCrashPad(op.V), key)
			default:
				op = WalOp{Kind: byte(txn.WriteDelete), K: key}
				_, err = sess.Exec("DELETE FROM crashkv WHERE k = ?", key)
				live[key] = false
			}
			if err != nil {
				return attempts, fmt.Errorf("consistency: disk crash op: %w", err)
			}
			att.Ops = append(att.Ops, op)
		}
		finish := func(undo bool) {
			if !undo {
				return
			}
			for _, op := range att.Ops {
				switch txn.WriteKind(op.Kind) {
				case txn.WriteInsert:
					live[op.K] = false
				case txn.WriteDelete:
					live[op.K] = true
				}
			}
		}
		if rng.Intn(100) < 10 {
			if err := sess.Rollback(); err != nil {
				return attempts, err
			}
			att.RolledBack = true
			finish(true)
		} else if err := sess.Commit(); err == nil {
			att.Acked = true
		} else {
			// The commit record may or may not be durable; recovery decides.
			att.Uncertain = true
			finish(true)
		}
		attempts = append(attempts, att)
	}
	return attempts, nil
}

// RecoverDiskCrash reopens an engine over a run's surviving disk image,
// running the full ARIES restart (analysis, redo, undo, page write-back).
// The caller owns the returned engine.
func RecoverDiskCrash(res *DiskCrashResult, poolPages int) (*sqldb.Engine, error) {
	if poolPages == 0 {
		poolPages = 8
	}
	return sqldb.OpenDisk(sqldb.Config{
		Name:            "disk-crash-recovered",
		Mode:            txn.Locking,
		WALPolicy:       wal.SyncNone,
		DiskDevice:      res.Device,
		DiskWAL:         res.WALImage,
		WALSink:         &bytes.Buffer{},
		BufferPoolPages: poolPages,
	})
}

// VerifyDiskCrash checks a recovered engine against the durability contract
// of the attempts that produced its disk image (pass cumulative attempts for
// chained runs):
//
//   - every acknowledged commit is a recovery winner, every rolled-back
//     transaction is not, and every winner is an acked or uncertain commit
//     (acked ⊆ winners ⊆ acked ∪ uncertain — an uncertain commit whose
//     record reached the log before the crash legitimately wins);
//   - the recovered table holds exactly the winners' writes replayed in
//     order, value- and pad-byte-exact;
//   - every page of the recovered device verifies (recovery reformatted and
//     rebuilt any torn page from the log) and holds each winner's last
//     logged image of every slot.
func VerifyDiskCrash(res *DiskCrashResult, attempts []CommitAttempt, eng *sqldb.Engine) error {
	rec := eng.DiskRecovery()
	if rec == nil {
		return fmt.Errorf("consistency: recovered engine has no recovery result")
	}
	winners := map[uint64]bool{}
	for _, id := range rec.Winners {
		winners[id] = true
	}
	known := map[uint64]bool{}
	for i := range attempts {
		att := &attempts[i]
		if known[att.ID] {
			return fmt.Errorf("consistency: duplicate attempt txn id %d (id reuse across restarts)", att.ID)
		}
		known[att.ID] = true
		switch {
		case att.Acked && !winners[att.ID]:
			return fmt.Errorf("consistency: acked txn %d lost by recovery", att.ID)
		case att.RolledBack && winners[att.ID]:
			return fmt.Errorf("consistency: rolled-back txn %d won recovery", att.ID)
		}
	}
	for id := range winners {
		att := findAttempt(attempts, id)
		if att == nil {
			return fmt.Errorf("consistency: recovery winner %d is not a known attempt", id)
		}
		if !att.Acked && !att.Uncertain {
			return fmt.Errorf("consistency: recovery winner %d was rolled back", id)
		}
	}

	// Replay the winners over the model and compare with the recovered table.
	model := map[int64]int64{}
	for i := range attempts {
		att := &attempts[i]
		if !winners[att.ID] {
			continue
		}
		for _, op := range att.Ops {
			switch txn.WriteKind(op.Kind) {
			case txn.WriteInsert, txn.WriteUpdate:
				model[op.K] = op.V
			case txn.WriteDelete:
				delete(model, op.K)
			}
		}
	}
	if !eng.Catalog().HasTable("crashkv") {
		if len(model) != 0 {
			return fmt.Errorf("consistency: crashkv lost but %d rows expected", len(model))
		}
	} else {
		q, err := eng.Session().Query("SELECT k, v, pad FROM crashkv")
		if err != nil {
			return fmt.Errorf("consistency: recovered scan: %w", err)
		}
		if len(q.Rows) != len(model) {
			return fmt.Errorf("consistency: recovered %d rows, want %d", len(q.Rows), len(model))
		}
		for _, row := range q.Rows {
			k, v, pad := row[0].Int(), row[1].Int(), row[2].Str()
			want, ok := model[k]
			if !ok {
				return fmt.Errorf("consistency: recovered key %d should not exist", k)
			}
			if v != want {
				return fmt.Errorf("consistency: recovered key %d holds %d, want %d", k, v, want)
			}
			if pad != diskCrashPad(v) {
				return fmt.Errorf("consistency: recovered key %d pad bytes corrupted", k)
			}
		}
	}

	// Every device page must verify post-recovery: tears were rebuilt.
	n, err := res.Device.Pages()
	if err != nil {
		return err
	}
	buf := make([]byte, heap.PageSize)
	for id := uint32(0); id < n; id++ {
		if err := res.Device.ReadPage(id, buf); err != nil {
			return fmt.Errorf("consistency: recovered page %d: %w", id, err)
		}
		if err := heap.Verify(buf); err != nil {
			return fmt.Errorf("consistency: recovered page %d fails verification: %w", id, err)
		}
	}
	// The table check above reads rows rebuilt from the log alone, blind to
	// a stale page; the pages themselves must hold every winner's last image
	// of each slot.
	last := map[[2]uint32][]byte{}
	for _, u := range rec.Updates {
		last[[2]uint32{u.PageID, uint32(u.Slot)}] = u.After
	}
	for at, img := range last {
		if err := res.Device.ReadPage(at[0], buf); err != nil {
			return fmt.Errorf("consistency: recovered page %d: %w", at[0], err)
		}
		got, ok := heap.AsPage(buf).Slot(int(at[1]))
		if ok != (len(img) > 0) || !bytes.Equal(got, img) {
			return fmt.Errorf("consistency: recovered page %d slot %d does not hold its last logged image", at[0], at[1])
		}
	}
	return nil
}

// MergeAttempts combines the attempt histories of chained runs (crash →
// recover → run → crash ...). Recovery restarts the transaction-id source
// above the log's high-water mark, so every LOGGED id is unique across
// lives; but an id that never reached the log (a rollback, or a commit
// attempted after the log died) is invisible to the next life and may be
// reused. Such an attempt can never win recovery or contribute contents, so
// on collision the later life's attempt is the one that counts.
func MergeAttempts(prev, next []CommitAttempt) []CommitAttempt {
	reused := map[uint64]bool{}
	for i := range next {
		reused[next[i].ID] = true
	}
	out := make([]CommitAttempt, 0, len(prev)+len(next))
	for i := range prev {
		if !reused[prev[i].ID] {
			out = append(out, prev[i])
		}
	}
	return append(out, next...)
}

// findAttempt returns the attempt with the given txn id, or nil.
func findAttempt(attempts []CommitAttempt, id uint64) *CommitAttempt {
	for i := range attempts {
		if attempts[i].ID == id {
			return &attempts[i]
		}
	}
	return nil
}
