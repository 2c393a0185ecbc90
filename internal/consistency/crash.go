package consistency

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"benchpress/internal/sqldb"
	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/wal"
)

// Crash torture: one kill sweep over the metered devices. A seeded workload
// runs against an engine while ONE byte budget meters every durable write:
// the WAL alone for a RAM engine (MVCC), the WAL and the heap device together
// for a disk-resident one (row locking). The write that crosses the budget is
// torn — a partial frame in the log, a half-written page on the device — and
// everything after it is rejected, exactly as if the machine lost power at
// that byte. Recovery then runs over the surviving image and both arms are
// held to one contract:
//
//	acked ⊆ winners ⊆ acked ∪ uncertain, and no rolled-back transaction wins
//
// A RAM engine's winners are the commit records wal.ScanRecords and
// wal.DecodeARIES find in the surviving log; a disk engine's are the
// winners of its full ARIES restart, whose rows must then match the winners'
// writes byte for byte, on pages that all pass Verify. With one session and a
// write-through log the durable byte stream is a pure function of seed and
// budget, which is what makes a sweep across it deterministic.

// ErrKilled is the persistent error a metered device returns once the crash
// budget is exhausted: the emulation of a machine that died mid-write.
var ErrKilled = errors.New("consistency: simulated crash: device killed")

// The engine settings each arm runs with. Small pools and frequent
// checkpoints put page flushes and checkpoint records inside every run; the
// recovered engine gets a roomier pool so recovery is not what is measured.
const (
	crashGroupInterval   = 100 * time.Microsecond
	crashPoolPages       = 2
	crashCheckpointEvery = 10
	recoveredPoolPages   = 8
	// crashKeys is each worker's key range; workers stay crashKeyStride
	// apart so the workload is conflict-free and only durability is tested.
	crashKeys      = 40
	crashKeyStride = 1000
)

// crashBudget is the shared byte meter: every metered device draws from the
// same pool, so a kill point is a single global byte offset in the engine's
// combined durable-write stream.
type crashBudget struct {
	mu    sync.Mutex
	limit int64 // total bytes allowed; negative = unlimited
	used  int64
	dead  bool
}

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

// kill ends the budget at its current level: every later write fails.
func (b *crashBudget) kill() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dead = true
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
// accepted bytes as the surviving log image. The write that crosses the
// budget lands its granted prefix (a torn tail) and fails with ErrKilled.
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

// CrashConfig parameterizes one crash-torture run.
type CrashConfig struct {
	// Disk meters the heap device as well as the WAL: the run drives a
	// disk-resident row-locking engine instead of a RAM MVCC one.
	Disk bool
	// Policy is the WAL sync policy. SyncNone writes through (deterministic
	// kill points); SyncGroup exercises group-commit failure propagation.
	Policy wal.SyncPolicy
	// Seed drives the workload.
	Seed int64
	// Txns is the number of transactions to attempt (default 140).
	Txns int
	// Workers is the number of concurrent sessions (default 1: sequential
	// and deterministic), each on its own key range.
	Workers int
	// Budget is the byte budget shared by the metered devices (negative =
	// never dies).
	Budget int64
	// From resumes a disk run's surviving image (chained restarts through
	// repeated crashes): recovery runs over it before the workload starts.
	From *CrashResult
}

// CrashOp is one logical write the crash workload performed.
type CrashOp struct {
	Kind txn.WriteKind
	// K and V are the row's key and value (V is 0 for deletes).
	K, V int64
}

// CommitAttempt is one transaction the crash workload tried to commit.
type CommitAttempt struct {
	// ID is the engine transaction id.
	ID uint64
	// Ops is the transaction's write set in program order.
	Ops []CrashOp
	// Acked reports that Commit returned nil: the durability contract says
	// the transaction must survive recovery.
	Acked bool
	// Uncertain reports that Commit returned a durability error: the
	// transaction aborted in memory and may or may not be on disk (the
	// classic commit-uncertainty window).
	Uncertain bool
	// RolledBack reports a voluntary rollback: the transaction must never
	// win recovery.
	RolledBack bool
}

// CrashResult is the outcome of one crash-torture run.
type CrashResult struct {
	Attempts []CommitAttempt
	// Image is the surviving log: the clean prefix of a resumed image plus
	// every byte the sink accepted.
	Image []byte
	// Device is the surviving heap device, torn pages and all; nil for a
	// RAM run.
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

	// uncertainLoses holds when the WAL is the only metered device and
	// writes through: a record is written in one append and a torn one is
	// dropped, so a commit that returned an error can never win.
	uncertainLoses bool
	sinkBytes      []byte
	walWrites      []sinkWrite
}

// RunCrash opens the configured engine over the budgeted devices (recovering
// cfg.From first), drives the seeded workload on table crashkv, and captures
// the surviving image after the crash, recording for every transaction
// whether its commit was acknowledged, rejected (uncertain) or rolled back.
func RunCrash(cfg CrashConfig) (*CrashResult, error) {
	if cfg.Txns == 0 {
		cfg.Txns = 140
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	budget := &crashBudget{limit: cfg.Budget}
	sink := &budgetWriter{budget: budget}
	ecfg := sqldb.Config{
		Name:                "crash",
		Mode:                txn.MVCC,
		WALPolicy:           cfg.Policy,
		GroupCommitInterval: crashGroupInterval,
		WALSink:             sink,
	}
	res := &CrashResult{uncertainLoses: !cfg.Disk && cfg.Policy == wal.SyncNone}
	var (
		dev    *budgetDevice
		prefix []byte
		eng    *sqldb.Engine
	)
	if cfg.Disk {
		dev = &budgetDevice{mem: heap.NewMemDevice(), budget: budget}
		if cfg.From != nil {
			dev.mem, prefix = cfg.From.Device, cfg.From.Image
		}
		ecfg.Mode, ecfg.DiskDevice, ecfg.DiskWAL = txn.Locking, dev, prefix
		ecfg.BufferPoolPages, ecfg.CheckpointEvery = crashPoolPages, crashCheckpointEvery
		var err error
		if eng, err = sqldb.OpenDisk(ecfg); err != nil {
			return nil, fmt.Errorf("consistency: crash open: %w", err)
		}
		prefix = prefix[:eng.DiskRecovery().CleanWALLen]
		res.Device = dev.mem
	} else {
		eng = sqldb.Open(ecfg)
	}

	attempts, runErr := runCrashWorkload(eng, cfg)
	// Close before capturing: the shutdown flush is part of the byte stream
	// (a kill point can land inside it), and nothing may move afterwards.
	eng.Close()
	if runErr != nil {
		return nil, runErr
	}
	res.Attempts = attempts
	res.Image = append(append([]byte(nil), prefix...), sink.buf...)
	res.sinkBytes, res.walWrites = sink.buf, sink.writes
	if dev != nil {
		res.PageWrites = dev.writes
	}
	res.Used, res.Killed = budget.usedBytes(), budget.killed()
	// Everything before the first commit record is schema or bootstrap.
	res.SchemaFloor = res.Used
	if commits := res.kindWrites(wal.KindCommit); len(commits) > 0 {
		res.SchemaFloor = commits[0][0]
	}
	return res, nil
}

// runCrashWorkload creates crashkv — or, resuming a recovered image, seeds
// each worker's live keys from it — and runs the workers to completion.
func runCrashWorkload(eng *sqldb.Engine, cfg CrashConfig) ([]CommitAttempt, error) {
	live := make([]map[int64]bool, cfg.Workers)
	for w := range live {
		live[w] = map[int64]bool{}
	}
	sess := eng.Session()
	if !eng.Catalog().HasTable("crashkv") {
		if _, err := sess.Exec(`CREATE TABLE crashkv (
			k BIGINT NOT NULL, v BIGINT, pad VARCHAR(200), PRIMARY KEY (k))`); err != nil {
			return nil, fmt.Errorf("consistency: crash schema: %w", err)
		}
	} else {
		q, err := sess.Query("SELECT k FROM crashkv")
		if err != nil {
			return nil, err
		}
		for _, row := range q.Rows {
			if w := row[0].Int() / crashKeyStride; w < int64(cfg.Workers) {
				live[w][row[0].Int()] = true
			}
		}
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		attempts []CommitAttempt
		firstErr error
	)
	perWorker := max(cfg.Txns/cfg.Workers, 1)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed := cfg.Seed + int64(w)*104729
			got, err := crashWorker(eng.Session(), seed, int64(w)*crashKeyStride, live[w], perWorker)
			mu.Lock()
			defer mu.Unlock()
			attempts = append(attempts, got...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(w)
	}
	wg.Wait()
	return attempts, firstErr
}

// crashWorker runs one session's share of the workload over keys
// [base, base+crashKeys), tracking live keys so every statement succeeds and
// the expected write set is exactly the statement sequence. Commit failures
// are the crash and are recorded; statement failures are engine bugs.
func crashWorker(sess *sqldb.Session, seed, base int64, live map[int64]bool, txns int) ([]CommitAttempt, error) {
	rng := rand.New(rand.NewSource(seed))
	var attempts []CommitAttempt
	for i := 0; i < txns; i++ {
		if err := sess.Begin(); err != nil {
			return attempts, fmt.Errorf("consistency: crash begin: %w", err)
		}
		att := CommitAttempt{ID: sess.TxnInfo().ID}
		nops := 1 + rng.Intn(4)
		touched := map[int64]bool{}
		for j := 0; j < nops; j++ {
			// One op per key per transaction: the engine's uniqueness check
			// is live-or-pending, so deleting and re-inserting a key inside
			// one transaction is rejected.
			key := base + rng.Int63n(crashKeys)
			for touched[key] {
				key = base + rng.Int63n(crashKeys)
			}
			touched[key] = true
			op := CrashOp{Kind: txn.WriteUpdate, K: key, V: MakeTag(att.ID, j)}
			var err error
			switch {
			case !live[key]:
				op.Kind = txn.WriteInsert
				_, err = sess.Exec("INSERT INTO crashkv (k, v, pad) VALUES (?, ?, ?)", key, op.V, crashPad(op.V))
				live[key] = true
			case rng.Intn(100) < 70:
				_, err = sess.Exec("UPDATE crashkv SET v = ?, pad = ? WHERE k = ?", op.V, crashPad(op.V), key)
			default:
				op = CrashOp{Kind: txn.WriteDelete, K: key}
				_, err = sess.Exec("DELETE FROM crashkv WHERE k = ?", key)
				live[key] = false
			}
			if err != nil {
				return attempts, fmt.Errorf("consistency: crash op: %w", err)
			}
			att.Ops = append(att.Ops, op)
		}
		if rng.Intn(100) < 10 {
			if err := sess.Rollback(); err != nil {
				return attempts, err
			}
			att.RolledBack = true
		} else if err := sess.Commit(); err == nil {
			att.Acked = true
		} else {
			// The engine aborted the transaction, but its commit record may
			// or may not be durable; recovery decides.
			att.Uncertain = true
		}
		if !att.Acked {
			for _, op := range att.Ops {
				switch op.Kind {
				case txn.WriteInsert:
					live[op.K] = false
				case txn.WriteDelete:
					live[op.K] = true
				}
			}
		}
		attempts = append(attempts, att)
	}
	return attempts, nil
}

// crashPad derives the pad column deterministically from the row value, so
// content verification can check recovered rows byte-for-byte without the
// workload tracking pad strings.
func crashPad(v int64) string {
	b := make([]byte, 160)
	for i := range b {
		b[i] = 'a' + byte((v+int64(i))%26)
	}
	return string(b)
}

// kindWrites returns the global offset and accepted length of every WAL
// write whose frame carries a record of the given kind, for aiming tears at
// it. A write torn before its payload is of unknowable kind and skipped.
func (r *CrashResult) kindWrites(kind wal.RecKind) [][2]int64 {
	var out [][2]int64
	for _, w := range r.walWrites {
		if w.n > wal.PayloadHeaderSize && wal.RecKind(r.sinkBytes[w.local+wal.PayloadHeaderSize]) == kind {
			out = append(out, [2]int64{w.global, int64(w.n)})
		}
	}
	return out
}

// VerifyCrash recovers a run's surviving image and checks it against the
// attempts that produced it (pass cumulative attempts for chained runs):
//
//   - acked ⊆ winners ⊆ acked ∪ uncertain, no rolled-back transaction wins,
//     and no uncertain one either when the log alone is metered and writes
//     through;
//   - disk only: the recovered table holds exactly the winners' writes
//     replayed in order, value- and pad-byte-exact, and every device page
//     verifies (recovery rebuilt any torn page from the log) and holds each
//     winner's last logged image of every slot.
//
// A RAM run's recovery is the log scan itself and returns a nil engine; a
// disk run's is the full ARIES restart, and its engine — a live database
// the caller owns — is returned for further checks.
func VerifyCrash(res *CrashResult, attempts []CommitAttempt) (*sqldb.Engine, error) {
	if res.Device == nil {
		winners, err := loggedCommits(res.Image)
		if err != nil {
			return nil, err
		}
		return nil, checkWinners(attempts, winners, res.uncertainLoses)
	}
	eng, err := sqldb.OpenDisk(sqldb.Config{
		Name:            "crash-recovered",
		Mode:            txn.Locking,
		WALPolicy:       wal.SyncNone,
		DiskDevice:      res.Device,
		DiskWAL:         res.Image,
		WALSink:         &bytes.Buffer{},
		BufferPoolPages: recoveredPoolPages,
	})
	if err != nil {
		return nil, fmt.Errorf("consistency: recover: %w", err)
	}
	if err := verifyDisk(res, attempts, eng); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// loggedCommits decodes the commit records of a surviving log with the
// reader recovery uses, tolerating a torn tail (the expected residue of a
// mid-write crash). Any other framing damage is a hard error.
func loggedCommits(image []byte) (map[uint64]bool, error) {
	recs, _, err := wal.ScanRecords(image)
	if err != nil && !errors.Is(err, wal.ErrTorn) {
		return nil, err
	}
	ids := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		rec, err := wal.DecodeARIES(r.Payload)
		if err != nil {
			return nil, fmt.Errorf("consistency: log record %d: %w", r.Seq, err)
		}
		if rec.Kind != wal.KindCommit {
			continue
		}
		if ids[rec.Commit] {
			return nil, fmt.Errorf("consistency: txn %d logged twice", rec.Commit)
		}
		ids[rec.Commit] = true
	}
	return ids, nil
}

// checkWinners checks the durability contract shared by both arms.
func checkWinners(attempts []CommitAttempt, winners map[uint64]bool, uncertainLoses bool) error {
	byID := make(map[uint64]bool, len(attempts))
	for _, att := range attempts {
		if byID[att.ID] {
			return fmt.Errorf("consistency: duplicate attempt txn id %d (id reuse across restarts)", att.ID)
		}
		byID[att.ID] = true
		won := winners[att.ID]
		switch {
		case att.Acked && !won:
			return fmt.Errorf("consistency: acked txn %d lost by recovery", att.ID)
		case att.RolledBack && won:
			return fmt.Errorf("consistency: rolled-back txn %d won recovery", att.ID)
		case att.Uncertain && won && uncertainLoses:
			return fmt.Errorf("consistency: unacked txn %d won recovery of a write-through log", att.ID)
		}
	}
	for id := range winners {
		if !byID[id] {
			return fmt.Errorf("consistency: recovery winner %d is not a known attempt", id)
		}
	}
	return nil
}

// verifyDisk checks a recovered disk engine: the shared contract on its
// recovery winners, then rows and pages.
func verifyDisk(res *CrashResult, attempts []CommitAttempt, eng *sqldb.Engine) error {
	rec := eng.DiskRecovery()
	winners := map[uint64]bool{}
	for _, id := range rec.Winners {
		winners[id] = true
	}
	if err := checkWinners(attempts, winners, false); err != nil {
		return err
	}

	// Replay the winners over the model and compare with the recovered table.
	model := map[int64]int64{}
	for _, att := range attempts {
		if !winners[att.ID] {
			continue
		}
		for _, op := range att.Ops {
			if op.Kind == txn.WriteDelete {
				delete(model, op.K)
			} else {
				model[op.K] = op.V
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
			if pad != crashPad(v) {
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
