package sqldb

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"benchpress/internal/sqldb/catalog"
	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/sqldb/txn"
	"benchpress/internal/sqlval"
	"benchpress/internal/wal"
)

// Disk-resident mode. The engine keeps its in-memory multi-version row store
// as the working representation (reads never touch the device), and mirrors
// every committed row into a slotted-page heap behind a buffer pool, with
// ARIES-style physical logging:
//
//	update records  — per-row slot images (before/after), appended without a
//	                  flush wait (AppendRecordAsync)
//	commit record   — appended with AppendRecord, whose group-commit verdict
//	                  covers the whole batch (sink bytes land in LSN order)
//	checkpoints     — fuzzy: the buffer pool's dirty page table plus every
//	                  logged-but-unapplied op, every CheckpointEvery commits
//
// A commit (1) sequences under ds.mu: plans slots, logs update records,
// takes an apply ticket; (2) awaits its commit record outside the lock, so
// concurrent commits share a group flush; (3) applies in ticket (= LSN)
// order, because redo skips a record whose page LSN is already past it.
// Pages change only after the commit record is durable, so the pool never
// holds uncommitted data (no-steal with respect to losers) and recovery's
// undo pass is degenerate by construction. On reopen, heap.Recover replays
// the log three-pass against the device and the engine rebuilds its RAM
// tables from the winner updates — the log is never truncated past its clean
// prefix, so a torn page can always be rebuilt from LSN 0.
//
// Known bounds, documented rather than hidden: the log is not garbage
// collected (checkpoints bound redo work, not file size), a single row image
// must fit one page, and a device write failure after the commit record is
// durable surfaces as a commit error even though recovery would replay it.

// diskCatalogTable is the reserved heap table id for catalog records (the
// JSON-serialized schema of one table each).
const diskCatalogTable uint32 = 0

// heapRID addresses one record slot in the heap.
type heapRID struct {
	page uint32
	slot uint16
}

// diskTable is the disk-side state of one table: its stable id (heap records
// are tagged with it), the catalog record's location, and the row-id-to-slot
// map.
type diskTable struct {
	id     uint32
	tbl    *storage.Table
	catRID heapRID
	catRec []byte
	rids   map[storage.RowID]heapRID
}

// pageAlloc is the free-space tracking for one heap page. free counts record
// bytes plus directory growth (place budgets SlotDirSize per insert); slots
// are never reused once dead, keeping redo's slot addressing stable.
type pageAlloc struct {
	id       uint32
	free     int
	nextSlot int
	fresh    bool // never written to the device: first pin must PinNew
}

// diskOp is one planned slot mutation, logged then applied.
type diskOp struct {
	rid    heapRID
	before []byte
	after  []byte // nil deletes the slot
	lsn    uint64
	fresh  bool // first op on a never-written page: apply with PinNew
}

// applyTicket is one logged op set's turn at the heap pages, taken under
// ds.mu in LSN order and chained like flushGen.prev (see finish).
type applyTicket struct {
	ops  []diskOp
	prev chan struct{} // predecessor's done; nil when none was in flight
	done chan struct{}
}

type diskStore struct {
	eng  *Engine
	dev  heap.Device
	pool *heap.Pool
	log  *wal.Log

	walFile  *os.File // file sink; nil with an injected device
	closeDev bool

	mu          sync.Mutex
	byName      map[string]*diskTable
	byID        map[uint32]*diskTable
	nextTableID uint32
	alloc       []pageAlloc
	allocIdx    map[uint32]int
	nextPageID  uint32
	commits     int
	ckptEvery   int
	recovery    *heap.RecoveryResult
	inflight    []*applyTicket // oldest first; closed prefix retired lazily
	scratch     []byte         // logOps' update payload; the log copies it
}

// diskSchema is the serialized form of one table's schema, stored as a
// catalog record so recovery can rebuild the catalog before installing rows.
type diskSchema struct {
	TableID uint32
	Name    string
	Columns []diskColumn
	PK      []string
	Indexes []diskIndex
}

type diskColumn struct {
	Name     string
	TypeName string
	Kind     uint8
	Size     int
	NotNull  bool
	AutoInc  bool
	// Default is EncodeRow of the single default value; nil means none.
	Default []byte
}

type diskIndex struct {
	Name    string
	Columns []string
	Unique  bool
}

// OpenDisk creates a disk-resident engine: it recovers the heap image from
// the WAL, rebuilds the in-memory tables, and arranges for every commit to be
// physically logged and applied to heap pages through the buffer pool.
// Without DataDir or an injected device it degrades to Open.
func OpenDisk(cfg Config) (*Engine, error) {
	if cfg.DataDir == "" && cfg.DiskDevice == nil {
		return Open(cfg), nil
	}
	e := &Engine{
		cfg:    cfg,
		cat:    catalog.New(),
		mgr:    txn.NewManager(cfg.Mode),
		tables: map[string]*storage.Table{},
		stmts:  map[string]*cachedStmt{},
	}
	ds := &diskStore{
		eng:      e,
		byName:   map[string]*diskTable{},
		byID:     map[uint32]*diskTable{},
		allocIdx: map[uint32]int{},
	}
	if err := ds.open(cfg); err != nil {
		if ds.walFile != nil {
			_ = ds.walFile.Close()
		}
		if ds.closeDev {
			_ = ds.dev.Close()
		}
		return nil, err
	}
	e.disk = ds
	e.log = ds.log
	// Never reuse a logged transaction id: an old commit record would make a
	// new transaction's updates replay as committed even if it lost.
	e.mgr.AdvanceTxnID(ds.recovery.MaxTxnID)
	delay := cfg.CommitDelay
	e.mgr.Writers = ds.log
	e.mgr.OnCommit = func(t *txn.Txn) error {
		if err := ds.onCommit(t); err != nil {
			return err
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		return nil
	}
	if cfg.VacuumInterval > 0 {
		e.vacStop = make(chan struct{})
		e.vacWG.Add(1)
		go func() {
			defer e.vacWG.Done()
			e.vacuumLoop()
		}()
	}
	return e, nil
}

// DiskRecovery returns the restart summary of a disk-resident engine, or nil
// for a RAM engine. The crash-torture harness inspects it.
func (e *Engine) DiskRecovery() *heap.RecoveryResult {
	if e.disk == nil {
		return nil
	}
	return e.disk.recovery
}

// DiskPoolStats snapshots the buffer pool counters of a disk-resident engine.
func (e *Engine) DiskPoolStats() (heap.PoolStats, bool) {
	if e.disk == nil {
		return heap.PoolStats{}, false
	}
	return e.disk.pool.Stats(), true
}

func (ds *diskStore) open(cfg Config) error {
	// Device and surviving log image.
	var walBytes []byte
	if cfg.DiskDevice != nil {
		ds.dev = cfg.DiskDevice
		walBytes = cfg.DiskWAL
	} else {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return err
		}
		fd, err := heap.OpenFileDevice(filepath.Join(cfg.DataDir, "heap.db"))
		if err != nil {
			return err
		}
		ds.dev = fd
		ds.closeDev = true
		walBytes, err = os.ReadFile(filepath.Join(cfg.DataDir, "wal.log"))
		if err != nil && !os.IsNotExist(err) {
			return err
		}
	}

	// Recover: replay the clean log prefix against the device.
	recs, cleanLen, scanErr := wal.ScanRecords(walBytes)
	if scanErr != nil && !errors.Is(scanErr, wal.ErrTorn) {
		return fmt.Errorf("sqldb: disk recovery: %w", scanErr)
	}
	res, err := heap.Recover(ds.dev, recs)
	if err != nil {
		return fmt.Errorf("sqldb: disk recovery: %w", err)
	}
	res.CleanWALLen = cleanLen
	ds.recovery = res
	if err := ds.rebuild(res); err != nil {
		return fmt.Errorf("sqldb: disk recovery: %w", err)
	}

	// Reopen the log where the surviving prefix left off. The file is
	// truncated to the clean prefix so the next replay never hits mid-file
	// torn garbage; the harness's injected sink receives only new bytes and
	// concatenates them with the prefix itself.
	var sink io.Writer = cfg.WALSink
	if cfg.DiskDevice == nil {
		path := filepath.Join(cfg.DataDir, "wal.log")
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		if err := f.Truncate(int64(cleanLen)); err != nil {
			_ = f.Close()
			return err
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			_ = f.Close()
			return err
		}
		ds.walFile = f
		sink = f
	}
	ds.log = wal.New(wal.Options{
		Policy:        cfg.WALPolicy,
		GroupInterval: cfg.GroupCommitInterval,
		W:             sink,
		StartSeq:      res.MaxLSN,
	})

	pages := cfg.BufferPoolPages
	if pages <= 0 {
		pages = 64
	}
	ds.pool = heap.NewPool(heap.PoolOptions{Pages: pages, Device: ds.dev, FlushWAL: ds.flushWAL})
	switch {
	case cfg.CheckpointEvery > 0:
		ds.ckptEvery = cfg.CheckpointEvery
	case cfg.CheckpointEvery == 0:
		ds.ckptEvery = 256
	}

	// Recovery flushed and synced every page, so an empty-DPT checkpoint
	// bounds all future redo at the current LSN.
	if _, err := ds.log.AppendRecordAsync(wal.EncodeCheckpoint(wal.CheckpointRec{})); err != nil {
		return err
	}
	return nil
}

// rebuild reconstructs the engine's in-memory state from a recovery result:
// the log holds full history (it is only ever truncated at a torn tail), so
// replaying the winner updates yields exactly the live heap records.
func (ds *diskStore) rebuild(res *heap.RecoveryResult) error {
	live := map[heapRID][]byte{}
	for _, u := range res.Updates {
		rid := heapRID{page: u.PageID, slot: u.Slot}
		if len(u.After) == 0 {
			delete(live, rid)
		} else {
			live[rid] = u.After
		}
	}
	rids := make([]heapRID, 0, len(live))
	for rid := range live {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(i, j int) bool {
		if rids[i].page != rids[j].page {
			return rids[i].page < rids[j].page
		}
		return rids[i].slot < rids[j].slot
	})

	ds.nextTableID = diskCatalogTable + 1
	// Pass 1: catalog records, so tables exist before their rows.
	for _, rid := range rids {
		rec := live[rid]
		tid, body, err := splitHeapRec(rec)
		if err != nil {
			return err
		}
		if tid != diskCatalogTable {
			continue
		}
		var sc diskSchema
		if err := json.Unmarshal(body, &sc); err != nil {
			return fmt.Errorf("catalog record at page %d slot %d: %w", rid.page, rid.slot, err)
		}
		if err := ds.installSchema(sc, rid, rec); err != nil {
			return err
		}
	}
	// Pass 2: rows.
	for _, rid := range rids {
		rec := live[rid]
		tid, body, err := splitHeapRec(rec)
		if err != nil {
			return err
		}
		if tid == diskCatalogTable {
			continue
		}
		dt, ok := ds.byID[tid]
		if !ok {
			return fmt.Errorf("row at page %d slot %d references unknown table %d", rid.page, rid.slot, tid)
		}
		// The page bytes are the version's record as they stand: validate
		// them, and that they fit the table, then install them as is.
		image, err := heap.ParseRecord(body)
		if err == nil {
			if n, _ := image.NumCols(); n != len(dt.tbl.Meta.Columns) {
				err = fmt.Errorf("%d columns for table %q of %d", n, dt.tbl.Meta.Name, len(dt.tbl.Meta.Columns))
			}
		}
		if err != nil {
			return fmt.Errorf("row at page %d slot %d: %w", rid.page, rid.slot, err)
		}
		id, row, _, err := dt.tbl.Insert(0, image)
		if err != nil {
			return fmt.Errorf("reinstall row at page %d slot %d: %w", rid.page, rid.slot, err)
		}
		// Clock starts at 1; make the recovered version visible to all.
		v := row.Latest()
		v.SetBegin(1)
		dt.rids[id] = rid
		for ci, col := range dt.tbl.Meta.Columns {
			if !col.AutoInc {
				continue
			}
			if cv := v.Col(ci); !cv.IsNull() {
				dt.tbl.BumpAutoInc(cv.Int())
			}
		}
	}

	// Allocator state from the recovered pages themselves.
	n, err := ds.dev.Pages()
	if err != nil {
		return err
	}
	buf := make([]byte, heap.PageSize)
	for id := uint32(0); id < n; id++ {
		a := pageAlloc{id: id}
		switch err := ds.dev.ReadPage(id, buf); {
		case errors.Is(err, heap.ErrPageMissing):
			a.free = heap.PageCapacity
			a.fresh = true
		case err != nil:
			return err
		default:
			if err := heap.Verify(buf); err != nil {
				return fmt.Errorf("post-recovery page %d: %w", id, err)
			}
			p := heap.AsPage(buf)
			a.free = p.FreeSpace()
			a.nextSlot = p.NumSlots()
		}
		ds.allocIdx[id] = len(ds.alloc)
		ds.alloc = append(ds.alloc, a)
	}
	ds.nextPageID = n
	return nil
}

// installSchema recreates one table (catalog entry, storage table, indexes)
// from its serialized schema.
func (ds *diskStore) installSchema(sc diskSchema, rid heapRID, rec []byte) error {
	cols := make([]catalog.Column, len(sc.Columns))
	for i, c := range sc.Columns {
		col := catalog.Column{
			Name:     c.Name,
			TypeName: c.TypeName,
			Kind:     sqlvalKind(c.Kind),
			Size:     c.Size,
			NotNull:  c.NotNull,
			AutoInc:  c.AutoInc,
		}
		if c.Default != nil {
			vals, err := heap.DecodeRow(c.Default)
			if err != nil || len(vals) != 1 {
				return fmt.Errorf("table %q column %q: bad default encoding", sc.Name, c.Name)
			}
			col.HasDefault = true
			col.Default = vals[0]
		}
		cols[i] = col
	}
	meta, err := ds.eng.cat.CreateTable(sc.Name, cols, sc.PK)
	if err != nil {
		return err
	}
	for _, ix := range sc.Indexes {
		if _, err := ds.eng.cat.AddIndex(sc.Name, ix.Name, ix.Columns, ix.Unique); err != nil {
			return err
		}
	}
	tbl := storage.NewTable(meta)
	ds.eng.tables[strings.ToLower(sc.Name)] = tbl
	dt := &diskTable{
		id:     sc.TableID,
		tbl:    tbl,
		catRID: rid,
		catRec: rec,
		rids:   map[storage.RowID]heapRID{},
	}
	ds.byName[strings.ToLower(sc.Name)] = dt
	ds.byID[sc.TableID] = dt
	if sc.TableID >= ds.nextTableID {
		ds.nextTableID = sc.TableID + 1
	}
	return nil
}

// flushWAL is the pool's WAL-before-data enforcement: commits apply pages
// only after their commit record is durable, so the fast path is a counter
// compare; the barrier only fires for out-of-band states.
func (ds *diskStore) flushWAL(lsn uint64) error {
	if ds.log.DurableLSN() >= lsn {
		return nil
	}
	if err := ds.log.Flush(); err != nil {
		return err
	}
	if ds.log.DurableLSN() >= lsn {
		return nil
	}
	return fmt.Errorf("sqldb: WAL durable only through %d, page holds %d", ds.log.DurableLSN(), lsn)
}

// place allocates a slot for an n-byte record: first fit on the lowest page
// id, budgeting directory growth, deterministically (the crash sweep replays
// commits byte-identically).
func (ds *diskStore) place(n int) (heapRID, error) {
	need := n + heap.SlotDirSize
	if need > heap.PageCapacity {
		return heapRID{}, fmt.Errorf("sqldb: %d-byte record exceeds page capacity", n)
	}
	for i := range ds.alloc {
		a := &ds.alloc[i]
		if a.free >= need && a.nextSlot < 0xFFFF {
			rid := heapRID{page: a.id, slot: uint16(a.nextSlot)}
			a.nextSlot++
			a.free -= need
			return rid, nil
		}
	}
	id := ds.nextPageID
	ds.nextPageID++
	ds.allocIdx[id] = len(ds.alloc)
	ds.alloc = append(ds.alloc, pageAlloc{id: id, free: heap.PageCapacity - need, nextSlot: 1, fresh: true})
	return heapRID{page: id, slot: 0}, nil
}

// planUpdate plans a record replacement at rid: in place when the page can
// absorb the growth, otherwise a delete plus a relocated insert.
func (ds *diskStore) planUpdate(rid heapRID, oldRec, newRec []byte) ([]diskOp, heapRID, error) {
	a := &ds.alloc[ds.allocIdx[rid.page]]
	delta := len(newRec) - len(oldRec)
	if delta <= a.free {
		a.free -= delta
		return []diskOp{{rid: rid, before: oldRec, after: newRec}}, rid, nil
	}
	a.free += len(oldRec)
	newRid, err := ds.place(len(newRec))
	if err != nil {
		return nil, heapRID{}, err
	}
	return []diskOp{
		{rid: rid, before: oldRec},
		{rid: newRid, after: newRec},
	}, newRid, nil
}

// logOps appends one update record per op (async) and returns only once all
// are sequenced. Callers hold ds.mu and buy durability with a subsequent
// awaited record. Marking fresh pages here keeps applying off the allocator.
// Each payload is encoded into ds.scratch, which the log copies into its
// buffer before AppendRecordAsync returns.
func (ds *diskStore) logOps(txnID uint64, ops []diskOp) error {
	for i := range ops {
		op := &ops[i]
		ds.scratch = wal.AppendUpdate(ds.scratch[:0], wal.UpdateRec{
			TxnID:  txnID,
			PageID: op.rid.page,
			Slot:   op.rid.slot,
			Before: op.before,
			After:  op.after,
		})
		lsn, err := ds.log.AppendRecordAsync(ds.scratch)
		if err != nil {
			return err
		}
		op.lsn = lsn
		a := &ds.alloc[ds.allocIdx[op.rid.page]]
		op.fresh, a.fresh = a.fresh, false
	}
	return nil
}

// applyOps mutates heap pages through the pool. Called only after the ops'
// durability is settled; a failure here is a device fault, not a crash state.
func (ds *diskStore) applyOps(ops []diskOp) error {
	for _, op := range ops {
		var (
			f   *heap.Frame
			err error
		)
		if op.fresh {
			f, err = ds.pool.PinNew(op.rid.page)
		} else {
			f, err = ds.pool.Pin(op.rid.page)
		}
		if err != nil {
			return err
		}
		pg := f.Page()
		if err := pg.Put(int(op.rid.slot), op.after); err != nil {
			ds.pool.Unpin(f, false)
			return err
		}
		pg.SetLSN(op.lsn)
		ds.pool.Unpin(f, true)
	}
	return nil
}

// ticketLocked retires the applied prefix of inflight and queues a ticket for
// ops behind the newest one still in flight.
func (ds *diskStore) ticketLocked(ops []diskOp) *applyTicket {
	for len(ds.inflight) > 0 && closed(ds.inflight[0].done) {
		ds.inflight = ds.inflight[1:]
	}
	tk := &applyTicket{ops: ops, done: make(chan struct{})}
	if n := len(ds.inflight); n > 0 {
		tk.prev = ds.inflight[n-1].done
	}
	ds.inflight = append(ds.inflight, tk)
	return tk
}

// finish is a ticket's turn: wait for the predecessor, apply unless err has
// failed the commit, and close done on every path, so done closes in order.
func (ds *diskStore) finish(tk *applyTicket, err error) error {
	if tk.prev != nil {
		<-tk.prev
	}
	if err == nil {
		err = ds.applyOps(tk.ops)
	}
	close(tk.done)
	return err
}

func closed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// maybeCheckpointLocked logs a fuzzy checkpoint every ckptEvery commits. Redo
// starts at its minimum RecLSN, so the dirty page table lists every in-flight
// ticket's ops at their own LSNs — read before the pool's, so a ticket that
// finishes in between is still covered. Checkpoints ride the group pipeline;
// a torn one is simply ignored by recovery in favor of its predecessor.
func (ds *diskStore) maybeCheckpointLocked() error {
	ds.commits++
	if ds.ckptEvery <= 0 || ds.commits%ds.ckptEvery != 0 {
		return nil
	}
	var dirty []wal.DirtyPage
	for _, tk := range ds.inflight {
		for _, op := range tk.ops {
			dirty = append(dirty, wal.DirtyPage{PageID: op.rid.page, RecLSN: op.lsn})
		}
	}
	dirty = append(dirty, ds.pool.DirtyPages()...)
	_, err := ds.log.AppendRecordAsync(wal.EncodeCheckpoint(wal.CheckpointRec{Dirty: dirty}))
	return err
}

// onCommit is the disk engine's durability hook: the three steps of the file
// comment. The commit record's verdict covers the update records before it.
// The transaction's writer announcement is used up by the commit record, or
// withdrawn on every path that returns before appending it.
func (ds *diskStore) onCommit(t *txn.Txn) error {
	writes := t.WriteSet()
	if len(writes) == 0 {
		ds.log.Withdraw()
		return nil // claims-only transaction: nothing durable changes
	}
	tk, err := ds.sequence(t.ID(), writes)
	if err == nil {
		err = ds.log.AppendCommit(wal.EncodeCommit(t.ID()))
	} else {
		ds.log.Withdraw()
	}
	if tk == nil {
		return err
	}
	return ds.finish(tk, err)
}

// sequence is step (1). A returned ticket must reach finish, even with err.
func (ds *diskStore) sequence(txnID uint64, writes []txn.WriteRec) (*applyTicket, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()

	ops := make([]diskOp, 0, len(writes))
	for _, w := range writes {
		dt, ok := ds.byName[strings.ToLower(w.Table)]
		if !ok {
			return nil, fmt.Errorf("sqldb: commit touches unknown disk table %q", w.Table)
		}
		switch w.Kind {
		case txn.WriteInsert:
			rec := encodeHeapRec(dt.id, w.Data)
			rid, err := ds.place(len(rec))
			if err != nil {
				return nil, err
			}
			ops = append(ops, diskOp{rid: rid, after: rec})
			dt.rids[w.RowID] = rid
		case txn.WriteUpdate:
			rid, ok := dt.rids[w.RowID]
			if !ok {
				return nil, fmt.Errorf("sqldb: update of unmapped row %d in %q", w.RowID, w.Table)
			}
			oldRec := encodeHeapRec(dt.id, w.Old)
			newRec := encodeHeapRec(dt.id, w.Data)
			uops, newRid, err := ds.planUpdate(rid, oldRec, newRec)
			if err != nil {
				return nil, err
			}
			ops = append(ops, uops...)
			dt.rids[w.RowID] = newRid
		case txn.WriteDelete:
			rid, ok := dt.rids[w.RowID]
			if !ok {
				return nil, fmt.Errorf("sqldb: delete of unmapped row %d in %q", w.RowID, w.Table)
			}
			rec := encodeHeapRec(dt.id, w.Data)
			ops = append(ops, diskOp{rid: rid, before: rec})
			ds.alloc[ds.allocIdx[rid.page]].free += len(rec)
			delete(dt.rids, w.RowID)
		}
	}

	if err := ds.logOps(txnID, ops); err != nil {
		return nil, err
	}
	return ds.ticketLocked(ops), ds.maybeCheckpointLocked()
}

// logSystemOps logs ops under SystemTxnID (treated as always committed by
// recovery) and forces them durable before applying — DDL is rare enough to
// pay the barrier. finish waits under the caller's ds.mu: applying never
// takes it.
func (ds *diskStore) logSystemOps(ops []diskOp) error {
	if err := ds.logOps(wal.SystemTxnID, ops); err != nil {
		return err
	}
	return ds.finish(ds.ticketLocked(ops), ds.log.Flush())
}

// onCreateTable assigns the new table a stable id and logs its catalog
// record.
func (ds *diskStore) onCreateTable(meta *catalog.Table) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	tid := ds.nextTableID
	ds.nextTableID++
	rec, err := encodeCatalogRec(tid, meta)
	if err != nil {
		return err
	}
	rid, err := ds.place(len(rec))
	if err != nil {
		return err
	}
	if err := ds.logSystemOps([]diskOp{{rid: rid, after: rec}}); err != nil {
		return err
	}
	tbl, err := ds.eng.StorageTable(meta.Name)
	if err != nil {
		return err
	}
	dt := &diskTable{
		id:     tid,
		tbl:    tbl,
		catRID: rid,
		catRec: rec,
		rids:   map[storage.RowID]heapRID{},
	}
	ds.byName[strings.ToLower(meta.Name)] = dt
	ds.byID[tid] = dt
	return nil
}

// onSchemaChange re-serializes a table's catalog record in place (or
// relocated) after DDL such as CREATE INDEX.
func (ds *diskStore) onSchemaChange(cat *catalog.Catalog, tableName string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	dt, ok := ds.byName[strings.ToLower(tableName)]
	if !ok {
		return fmt.Errorf("sqldb: schema change on unknown disk table %q", tableName)
	}
	meta, err := cat.Table(tableName)
	if err != nil {
		return err
	}
	rec, err := encodeCatalogRec(dt.id, meta)
	if err != nil {
		return err
	}
	ops, newRid, err := ds.planUpdate(dt.catRID, dt.catRec, rec)
	if err != nil {
		return err
	}
	if err := ds.logSystemOps(ops); err != nil {
		return err
	}
	dt.catRID = newRid
	dt.catRec = rec
	return nil
}

// onDropTable logs deletes for the table's rows and catalog record. Before
// images are omitted: SystemTxnID is always a winner, so undo never consults
// them.
func (ds *diskStore) onDropTable(name string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	dt, ok := ds.byName[strings.ToLower(name)]
	if !ok {
		return nil
	}
	ops := dropOpsLocked(dt)
	ops = append(ops, diskOp{rid: dt.catRID})
	if err := ds.logSystemOps(ops); err != nil {
		return err
	}
	delete(ds.byName, strings.ToLower(name))
	delete(ds.byID, dt.id)
	return nil
}

// onTruncate logs deletes for every row of the table, keeping the heap in
// sync with a TRUNCATE (or the game's reset) so a restart does not resurrect
// the rows.
func (ds *diskStore) onTruncate(name string) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	dt, ok := ds.byName[strings.ToLower(name)]
	if !ok {
		return nil
	}
	ops := dropOpsLocked(dt)
	if len(ops) == 0 {
		return nil
	}
	if err := ds.logSystemOps(ops); err != nil {
		return err
	}
	dt.rids = map[storage.RowID]heapRID{}
	return nil
}

// dropOpsLocked builds delete ops for every live row of dt, in deterministic
// slot order.
func dropOpsLocked(dt *diskTable) []diskOp {
	rids := make([]heapRID, 0, len(dt.rids))
	for _, rid := range dt.rids {
		rids = append(rids, rid)
	}
	sort.Slice(rids, func(i, j int) bool {
		if rids[i].page != rids[j].page {
			return rids[i].page < rids[j].page
		}
		return rids[i].slot < rids[j].slot
	})
	ops := make([]diskOp, len(rids))
	for i, rid := range rids {
		ops[i] = diskOp{rid: rid}
	}
	return ops
}

// close flushes the pool (clean shutdown) and releases file handles. The WAL
// is already closed by Engine.Close, so every page LSN is durable.
func (ds *diskStore) close() {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.pool.FlushAll() // best effort: recovery replays whatever this misses
	if ds.walFile != nil {
		_ = ds.walFile.Close()
	}
	if ds.closeDev {
		_ = ds.dev.Close()
	}
}

// encodeHeapRec frames one row image (a version's record) or catalog body
// with its table id.
func encodeHeapRec[B heap.Record | []byte](tableID uint32, body B) []byte {
	rec := make([]byte, 4+len(body))
	binary.LittleEndian.PutUint32(rec, tableID)
	copy(rec[4:], body)
	return rec
}

// splitHeapRec splits a heap record into table id and body.
func splitHeapRec(rec []byte) (uint32, []byte, error) {
	if len(rec) < 4 {
		return 0, nil, fmt.Errorf("heap record of %d bytes", len(rec))
	}
	return binary.LittleEndian.Uint32(rec), rec[4:], nil
}

// encodeCatalogRec serializes a table's schema as a catalog heap record.
func encodeCatalogRec(tableID uint32, meta *catalog.Table) ([]byte, error) {
	sc := diskSchema{TableID: tableID, Name: meta.Name}
	for _, c := range meta.Columns {
		dc := diskColumn{
			Name:     c.Name,
			TypeName: c.TypeName,
			Kind:     uint8(c.Kind),
			Size:     c.Size,
			NotNull:  c.NotNull,
			AutoInc:  c.AutoInc,
		}
		if c.HasDefault {
			dc.Default = heap.EncodeRow([]sqlval.Value{c.Default})
		}
		sc.Columns = append(sc.Columns, dc)
	}
	for _, pi := range meta.PKCols {
		sc.PK = append(sc.PK, meta.Columns[pi].Name)
	}
	for _, idx := range meta.Indexes {
		if idx.Primary {
			continue
		}
		di := diskIndex{Name: idx.Name, Unique: idx.Unique}
		for _, ci := range idx.Columns {
			di.Columns = append(di.Columns, meta.Columns[ci].Name)
		}
		sc.Indexes = append(sc.Indexes, di)
	}
	body, err := json.Marshal(sc)
	if err != nil {
		return nil, err
	}
	return encodeHeapRec(diskCatalogTable, body), nil
}

// sqlvalKind converts a serialized kind byte back. Unknown kinds decode as
// NULL-typed, which CreateTable will reject loudly rather than corrupt.
func sqlvalKind(k uint8) sqlval.Kind { return sqlval.Kind(k) }
