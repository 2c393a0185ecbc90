// Package storage implements the in-memory row store of the embedded engine.
//
// Every table row is a chain of immutable versions (newest first). A
// version's image is one heap.Record — the row codec's bytes held in a
// string, a single pointer-free allocation the garbage collector never scans.
// Readers decode it into their own scratch (Version.DecodeInto) or read one
// column (Version.Col); decoded text aliases the record. The aliasing rule:
// nothing the engine retains may hold a substring of a record, or it would
// keep the whole superseded image alive. Index keys cannot: a key is the
// byte encoding of the indexed columns (sqlval.AppendKey), built in scratch
// and copied into the tree's node arenas. Result rows handed to callers may
// alias records: records never change and the garbage collector bounds
// their lifetime.
//
// A version carries begin/end timestamps in the Hekaton style: values below
// txnMark are commit timestamps; values with the high bit set identify the
// uncommitted transaction that produced (begin) or superseded (end) the
// version. This one representation serves all three concurrency-control
// engines — MVCC readers pick versions by snapshot timestamp, locking and
// serial engines read the newest committed (or self-written) version.
//
// Index entries are maintained eagerly on write and point at row ids; readers
// always re-validate fetched versions against both visibility and the query
// predicate, so a stale index entry can only cause a filtered-out false
// positive, never a wrong result.
//
// # Concurrency layout
//
// Row slots live in NumSegments striped segments (segment.go); point reads
// are latch-free and inserts on different segments never contend. Each index
// tree carries its own latch (btree.Latched). No operation holds two index
// latches at once; multi-index updates take latches one at a time in a fixed
// order — primary first, then secondaries in ordinal order — and rely on the
// stale-entry-tolerant read discipline above for atomicity across indexes.
//
// Lock order (any prefix, never reversed):
//
//	primary latch → secondary latch (ordinal order) → segment mu → row latch
//
// In practice writers hold a single index latch at a time and never take a
// row latch under an index latch: uniqueness checks read row chains through
// their atomic fields only. Vacuum takes no row latch at all (a
// committed-dead row is immutable, so its images can be unindexed without
// one) and one index latch at a time.
//
// Writers must install a row version into its chain *before* loading the
// secondary-index list they will maintain (Insert installs the slot first;
// the txn layer installs update versions before calling
// AddVersionIndexEntries). AddIndex relies on this: it publishes the new
// index before backfilling, so under sequentially consistent atomics every
// writer either sees the published index or has already installed a version
// the backfill scan will see.
package storage

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"benchpress/internal/btree"
	"benchpress/internal/sqldb/catalog"
	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/sqlval"
)

// TxnMark flags a begin/end field as holding an uncommitted transaction id
// rather than a commit timestamp.
const TxnMark uint64 = 1 << 63

// DeleteFlag, combined with TxnMark in an End field, records that the owning
// transaction *deleted* the version (invisible to the owner) as opposed to
// merely write-claiming or superseding it (still visible to the owner, whose
// newer version - if any - shadows it).
const DeleteFlag uint64 = 1 << 62

// Infinity is the end timestamp of a live (undeleted) version.
const Infinity uint64 = math.MaxUint64

// Uncommitted reports whether ts is an in-flight transaction mark.
func Uncommitted(ts uint64) bool { return ts >= TxnMark && ts != Infinity }

// MarkOwner extracts the transaction id from an uncommitted mark.
func MarkOwner(ts uint64) uint64 { return ts &^ (TxnMark | DeleteFlag) }

// RowID identifies a row slot within one table.
type RowID = int64

// Version is one version of a row. The record is immutable; the Begin/End
// timestamps and the chain pointer are atomics so that readers may traverse
// chains without latches while writers (who hold the row latch for mutual
// exclusion among themselves) stamp commit timestamps.
type Version struct {
	rec   heap.Record
	begin atomic.Uint64 // commit ts, or TxnMark|txnID while the writer is in flight
	end   atomic.Uint64 // Infinity, commit ts of the deleter, or a txn mark
	next  atomic.Pointer[Version]
}

// NewVersion builds a version with the given stamps and chain successor. rec
// must be valid: built by heap.EncodeRecord, or checked by heap.ParseRecord.
func NewVersion(rec heap.Record, begin, end uint64, next *Version) *Version {
	v := &Version{rec: rec}
	v.begin.Store(begin)
	v.end.Store(end)
	if next != nil {
		v.next.Store(next)
	}
	return v
}

// Record returns the version's image in the row codec's layout.
func (v *Version) Record() heap.Record { return v.rec }

// Col decodes column i of the image; text aliases the record.
func (v *Version) Col(i int) sqlval.Value {
	val, err := v.rec.Col(i)
	if err != nil {
		panic(fmt.Sprintf("storage: version record: %v", err))
	}
	return val
}

// DecodeInto decodes the image into dst[:0] (growing it only when its
// capacity is short) and returns the filled slice; text aliases the record.
func (v *Version) DecodeInto(dst []sqlval.Value) []sqlval.Value {
	vals, err := v.rec.DecodeInto(dst)
	if err != nil {
		panic(fmt.Sprintf("storage: version record: %v", err))
	}
	return vals
}

// Begin returns the begin timestamp or mark.
func (v *Version) Begin() uint64 { return v.begin.Load() }

// SetBegin stamps the begin field. Callers hold the row latch.
func (v *Version) SetBegin(ts uint64) { v.begin.Store(ts) }

// End returns the end timestamp or mark.
func (v *Version) End() uint64 { return v.end.Load() }

// SetEnd stamps the end field. Callers hold the row latch.
func (v *Version) SetEnd(ts uint64) { v.end.Store(ts) }

// Next returns the older version in the chain, if any.
func (v *Version) Next() *Version { return v.next.Load() }

// SetNext replaces the chain successor (used by vacuum pruning).
func (v *Version) SetNext(n *Version) { v.next.Store(n) }

// Row is a version chain plus the latch guarding its mutation.
type Row struct {
	mu     sync.Mutex
	latest atomic.Pointer[Version]
}

// Latest returns the newest version (which may be uncommitted).
func (r *Row) Latest() *Version { return r.latest.Load() }

// Lock/Unlock expose the row latch to the transaction layer, which must hold
// it across check-then-install sequences.
func (r *Row) Lock()   { r.mu.Lock() }
func (r *Row) Unlock() { r.mu.Unlock() }

// SetLatest installs a new head version. Callers must hold the row latch.
func (r *Row) SetLatest(v *Version) { r.latest.Store(v) }

// View selects which versions a reader sees.
type View struct {
	TxnID  uint64 // reader's transaction id
	SnapTS uint64 // snapshot timestamp; used when Snapshot is true
	// Snapshot selects MVCC snapshot visibility. When false the view is
	// "read latest committed or own" as used by the locking and serial
	// engines.
	Snapshot bool
}

// mine reports whether ts is an uncommitted marker belonging to the view's
// transaction (delete or claim).
func (v View) mine(ts uint64) bool { return Uncommitted(ts) && MarkOwner(ts) == v.TxnID }

// committed reports whether ts is a commit timestamp.
func committed(ts uint64) bool { return ts < TxnMark }

// Visible walks the version chain and returns the version this view should
// see, or nil when the row is invisible (deleted or not yet born).
//
// End-field semantics: Infinity = live; a commit timestamp = committed
// delete/supersede at that time; an uncommitted mark = pending delete (with
// DeleteFlag) or a write claim / supersede (without). A pending delete by
// the viewing transaction hides the version from it; a claim does not. Other
// transactions' pending marks never hide a version (they may abort).
func (view View) Visible(r *Row) *Version {
	for v := r.Latest(); v != nil; v = v.Next() {
		begin, end := v.Begin(), v.End()
		if view.Snapshot {
			beginOK := view.mine(begin) || (committed(begin) && begin <= view.SnapTS)
			if !beginOK {
				continue
			}
			endOK := end == Infinity ||
				(committed(end) && end > view.SnapTS) ||
				(Uncommitted(end) && !(view.mine(end) && end&DeleteFlag != 0))
			if endOK {
				return v
			}
			return nil // this version is the visible one but it is deleted
		}
		// Latest-committed mode: skip other transactions' uncommitted
		// versions; the first acceptable version decides.
		if !committed(begin) && !view.mine(begin) {
			continue
		}
		if view.mine(end) && end&DeleteFlag != 0 {
			return nil // deleted by this transaction
		}
		if committed(end) && end != Infinity {
			return nil // committed delete
		}
		return v
	}
	return nil
}

// secondaryIndex pairs one secondary tree with its metadata. The slice of
// these is copy-on-write published (see Table.secondaries) so the write path
// reads it with a single atomic load.
type secondaryIndex struct {
	tree *btree.Latched
	meta *catalog.Index
}

// Table holds the physical state of one table: the striped row slots, the
// primary index (when a PK is declared), and all secondary indexes.
type Table struct {
	Meta *catalog.Table

	segs    [NumSegments]segment
	nextSeg atomic.Uint32 // round-robin segment pick for new rows
	autoInc atomic.Int64

	primary *btree.Latched // nil when no PK declared

	// secondaries is the COW-published index list: ordinals are stable
	// because DDL only appends. idxMu serializes publishers (AddIndex);
	// every reader takes one atomic load and never blocks on DDL.
	idxMu       sync.Mutex
	secondaries atomic.Pointer[[]secondaryIndex]

	// vacMu serializes vacuum passes (manual and background) against each
	// other and against Truncate; vacuum never blocks readers or writers.
	// It also guards limbo, the retired-slot batches awaiting the epoch
	// low-watermark, and vacDead, Reclaim's reused dead-row scratch.
	vacMu   sync.Mutex
	limbo   []limboBatch
	vacDead []Candidate
}

// NewTable allocates physical storage for a catalog table.
func NewTable(meta *catalog.Table) *Table {
	t := &Table{Meta: meta}
	t.initSegments()
	secs := []secondaryIndex{}
	for _, idx := range meta.Indexes {
		if idx.Primary {
			t.primary = btree.NewLatched()
		} else {
			secs = append(secs, secondaryIndex{tree: btree.NewLatched(), meta: idx})
		}
	}
	t.secondaries.Store(&secs)
	return t
}

// secondaryList returns the current published index list.
func (t *Table) secondaryList() []secondaryIndex { return *t.secondaries.Load() }

// AddIndex attaches physical storage for a newly created secondary index and
// backfills it from existing rows. Publication happens first: once the new
// list is visible, concurrent writers maintain the index themselves, and the
// write-path invariant (install version, then load the index list) plus
// sequentially consistent atomics guarantee the backfill scan observes every
// version whose writer missed the publication. Backfill may record images
// that concurrent writers also recorded, or images that died meanwhile; both
// are stale entries that readers filter out.
func (t *Table) AddIndex(idx *catalog.Index) {
	sec := secondaryIndex{tree: btree.NewLatched(), meta: idx}
	t.idxMu.Lock()
	old := t.secondaryList()
	grown := make([]secondaryIndex, len(old), len(old)+1)
	copy(grown, old)
	grown = append(grown, sec)
	t.secondaries.Store(&grown)
	t.idxMu.Unlock()

	t.ScanAll(func(id RowID, row *Row) bool {
		v := row.Latest()
		if v == nil {
			return true
		}
		var buf [keyScratch]byte
		key := indexKey(buf[:0], idx, v, id)
		sec.tree.Lock()
		sec.tree.Insert(key, id)
		sec.tree.Unlock()
		return true
	})
}

// NextAutoInc returns the next auto-increment value for the table.
func (t *Table) NextAutoInc() int64 { return t.autoInc.Add(1) }

// BumpAutoInc raises the auto-increment watermark to at least v.
func (t *Table) BumpAutoInc(v int64) {
	for {
		cur := t.autoInc.Load()
		if cur >= v || t.autoInc.CompareAndSwap(cur, v) {
			return
		}
	}
}

// keyScratch is the size of the stack buffers index keys are encoded into;
// a longer key spills to the heap.
const keyScratch = 64

// pkKey appends the primary key of image v, encoded (sqlval.AppendKey), to
// dst.
func (t *Table) pkKey(dst []byte, v *Version) []byte {
	return colsKey(dst, t.Meta.PKCols, v)
}

// colsKey appends the encoding of image v's columns cols to dst.
func colsKey(dst []byte, cols []int, v *Version) []byte {
	for _, c := range cols {
		dst = sqlval.AppendKey(dst, v.Col(c))
	}
	return dst
}

// samePK reports whether two images of a row carry the same primary key.
func (t *Table) samePK(a, b *Version) bool {
	for _, c := range t.Meta.PKCols {
		if sqlval.Compare(a.Col(c), b.Col(c)) != 0 {
			return false
		}
	}
	return true
}

// indexKey appends a physical secondary-index key to dst: the indexed
// columns of image v plus the row id, which keeps physical keys unique.
func indexKey(dst []byte, idx *catalog.Index, v *Version, id RowID) []byte {
	return sqlval.AppendKey(colsKey(dst, idx.Columns, v), sqlval.NewInt(id))
}

// ErrDuplicateKey is returned when an insert violates the primary key or a
// unique index.
type ErrDuplicateKey struct {
	Table string
	Index string
}

func (e *ErrDuplicateKey) Error() string {
	return fmt.Sprintf("storage: duplicate key in table %q (index %q)", e.Table, e.Index)
}

// liveOrPending reports whether the row currently has a version that is
// committed-live or uncommitted — i.e. whether an insert of the same key
// must be rejected.
func liveOrPending(r *Row) bool {
	v := r.Latest()
	if v == nil {
		return false
	}
	if !committed(v.Begin()) {
		return true // uncommitted insert/update pending
	}
	if v.End() == Infinity || !committed(v.End()) {
		return true // live, or a delete is pending (may abort)
	}
	return false // newest version is committed-deleted
}

// primaryConflict reports whether the primary index maps key to a different
// row that is live or pending and still carries key. Callers hold the
// primary latch; row state is read through atomics only.
func (t *Table) primaryConflict(key []byte, self RowID) bool {
	existing, ok := t.primary.Get(key)
	if !ok || existing == self {
		return false
	}
	r, live := t.Row(existing)
	return live && liveOrPending(r) && t.carriesPK(r.Latest(), key)
}

// carriesPK reports whether image v carries primary key key.
func (t *Table) carriesPK(v *Version, key []byte) bool {
	var buf [keyScratch]byte
	return bytes.Equal(t.pkKey(buf[:0], v), key)
}

// secondaryConflict reports whether a unique secondary index already holds a
// live row with the same indexed column values as image v. Callers hold
// sec's latch. A NULL never equals another, so a key with a NULL column
// conflicts with nothing: any number of rows may hold it. An index entry
// only blocks the insert when the row it points at is live (or pending) AND
// its newest image still holds the conflicting key: stale entries left
// behind by updates of indexed columns are ignored.
func (t *Table) secondaryConflict(sec secondaryIndex, v *Version, self RowID) bool {
	var pb, lb [keyScratch]byte
	prefix := pb[:0]
	for _, c := range sec.meta.Columns {
		val := v.Col(c)
		if val.IsNull() {
			return false
		}
		prefix = sqlval.AppendKey(prefix, val)
	}
	dup := false
	sec.tree.AscendPrefix(prefix, func(_ []byte, id int64) bool {
		if id == self {
			return true
		}
		r, ok := t.Row(id)
		if !ok || !liveOrPending(r) {
			return true
		}
		if !bytes.Equal(colsKey(lb[:0], sec.meta.Columns, r.Latest()), prefix) {
			return true // stale entry: the row moved off this key
		}
		dup = true
		return false
	})
	return dup
}

// Displaced records the primary-index mapping an Insert overwrote. A
// committed-dead row keeps its primary entry until vacuum so that older
// snapshots can still resolve its key; an insert reusing that key steals the
// entry, and if the insert later rolls back the stolen mapping must be put
// back (RollbackInsert) rather than deleted outright.
type Displaced struct {
	Prev    RowID
	HadPrev bool
}

// Insert creates a new row whose single version, image rec, is marked
// uncommitted by txnID. It installs all index entries. The returned RowID
// identifies the slot; on unique violation an ErrDuplicateKey is returned
// and nothing observable is left behind. The returned Displaced must be handed back to
// RollbackInsert if the transaction aborts.
//
// The slot is installed before any index work: the version's uncommitted
// mark keeps it invisible to every reader, and installing first upholds the
// install-then-load-index-list invariant AddIndex backfill depends on. Each
// uniqueness check and the matching entry insert happen under one continuous
// hold of that index's latch, so two racing inserts of the same key always
// serialize there; no operation holds two index latches at once.
func (t *Table) Insert(txnID uint64, rec heap.Record) (RowID, *Row, Displaced, error) {
	row := &Row{}
	v := NewVersion(rec, TxnMark|txnID, Infinity, nil)
	row.SetLatest(v)
	id := t.installRow(row)
	secs := t.secondaryList()

	var disp Displaced
	if t.primary != nil {
		var buf [keyScratch]byte
		key := t.pkKey(buf[:0], v)
		t.primary.Lock()
		if t.primaryConflict(key, id) {
			t.primary.Unlock()
			t.freeRow(id, row)
			return 0, nil, disp, &ErrDuplicateKey{Table: t.Meta.Name, Index: t.Meta.Indexes[0].Name}
		}
		if prev, ok := t.primary.Get(key); ok && prev != id {
			disp = Displaced{Prev: prev, HadPrev: true}
		}
		t.primary.Insert(key, id)
		t.primary.Unlock()
	}
	for ord := range secs {
		sec := secs[ord]
		var buf [keyScratch]byte
		key := indexKey(buf[:0], sec.meta, v, id)
		sec.tree.Lock()
		if sec.meta.Unique && t.secondaryConflict(sec, v, id) {
			sec.tree.Unlock()
			// Roll back the entries installed so far (the rollback
			// tolerates the ones never installed) and release the slot.
			t.RollbackInsert(id, v, disp)
			return 0, nil, Displaced{}, &ErrDuplicateKey{Table: t.Meta.Name, Index: sec.meta.Name}
		}
		sec.tree.Insert(key, id)
		sec.tree.Unlock()
	}
	return id, row, disp, nil
}

// removeSecondaryEntries deletes one version image's secondary entries.
// Secondary keys carry the row id, so an entry can never be claimed by
// another row and an unconditional delete is safe.
func (t *Table) removeSecondaryEntries(id RowID, v *Version) {
	var buf [keyScratch]byte
	for _, sec := range t.secondaryList() {
		key := indexKey(buf[:0], sec.meta, v, id)
		sec.tree.Lock()
		sec.tree.Delete(key)
		sec.tree.Unlock()
	}
}

// RollbackInsert unlinks an aborted insert's row slot and index entries,
// restoring the primary mapping the insert displaced. The restore is
// guarded under the primary latch: if the displaced row has been vacuumed
// away or its slot recycled for a different key, the entry is dropped
// instead of re-pointed. A vacuum pass can still free the displaced slot
// right after the check; the restored entry then dangles, which the
// package's read discipline tolerates — readers re-validate fetched rows
// against the entry key, and the next insert of the key overwrites it.
func (t *Table) RollbackInsert(id RowID, v *Version, disp Displaced) {
	if t.primary != nil {
		var buf [keyScratch]byte
		key := t.pkKey(buf[:0], v)
		t.primary.Lock()
		// Only touch the entry if it still points at this row: a
		// concurrent re-insert of the same key may have replaced it.
		if cur, ok := t.primary.Get(key); ok && cur == id {
			restored := false
			if disp.HadPrev {
				if r, ok := t.Row(disp.Prev); ok {
					if prev := r.Latest(); prev != nil && t.carriesPK(prev, key) {
						t.primary.Insert(key, disp.Prev)
						restored = true
					}
				}
			}
			if !restored {
				t.primary.Delete(key)
			}
		}
		t.primary.Unlock()
	}
	t.removeSecondaryEntries(id, v)
	if row, ok := t.Row(id); ok {
		t.freeRow(id, row)
	}
}

// AddVersionIndexEntries installs index entries for a new version image
// produced by an update (the row id is unchanged; only changed keys need new
// entries, and unchanged composites are idempotent inserts). old is the
// image being replaced: a unique secondary whose key changed is checked
// before its entry is installed, so an update cannot move a row onto a key
// held by another live or pending row — the check-and-insert happens under
// one continuous hold of that index's latch, mirroring Insert. On a
// violation the entries already installed for the new image are unwound
// (entries shared with the old image are left in place) and ErrDuplicateKey
// is returned with the row image unchanged in the indexes. Callers must
// have installed the image into the row chain already — see the package
// comment's write-path invariant. An update that keeps the primary key
// leaves the primary index alone: the old image's entry already maps the
// key to this row, and no insert can take the key of a live row.
func (t *Table) AddVersionIndexEntries(id RowID, old, v *Version) error {
	var buf, oldBuf [keyScratch]byte
	if t.primary != nil && !t.samePK(old, v) {
		key := t.pkKey(buf[:0], v)
		t.primary.Lock()
		t.primary.Insert(key, id)
		t.primary.Unlock()
	}
	secs := t.secondaryList()
	for ord := range secs {
		sec := secs[ord]
		key := indexKey(buf[:0], sec.meta, v, id)
		sec.tree.Lock()
		if sec.meta.Unique &&
			!bytes.Equal(indexKey(oldBuf[:0], sec.meta, old, id), key) &&
			t.secondaryConflict(sec, v, id) {
			sec.tree.Unlock()
			t.unwindVersionEntries(id, old, v, ord)
			return &ErrDuplicateKey{Table: t.Meta.Name, Index: sec.meta.Name}
		}
		sec.tree.Insert(key, id)
		sec.tree.Unlock()
	}
	return nil
}

// unwindVersionEntries removes the entries AddVersionIndexEntries installed
// for the new image before failing at secondary ordinal stop — only those
// not shared with the old image, which must keep its entries.
func (t *Table) unwindVersionEntries(id RowID, old, v *Version, stop int) {
	var buf, oldBuf [keyScratch]byte
	if t.primary != nil {
		newKey, oldKey := t.pkKey(buf[:0], v), t.pkKey(oldBuf[:0], old)
		if !bytes.Equal(newKey, oldKey) {
			t.primary.Lock()
			if cur, ok := t.primary.Get(newKey); ok && cur == id {
				t.primary.Delete(newKey)
			}
			t.primary.Unlock()
		}
	}
	secs := t.secondaryList()
	for ord := 0; ord < stop && ord < len(secs); ord++ {
		sec := secs[ord]
		newKey := indexKey(buf[:0], sec.meta, v, id)
		if bytes.Equal(indexKey(oldBuf[:0], sec.meta, old, id), newKey) {
			continue
		}
		sec.tree.Lock()
		sec.tree.Delete(newKey)
		sec.tree.Unlock()
	}
}

// RemoveVersionIndexEntries removes entries that belong exclusively to the
// given version image (used on rollback of an update whose keys changed, with
// keep holding the image whose entries must survive).
func (t *Table) RemoveVersionIndexEntries(id RowID, v, keep *Version) {
	var buf, keepBuf [keyScratch]byte
	if t.primary != nil && !t.samePK(v, keep) {
		oldKey := t.pkKey(buf[:0], v)
		t.primary.Lock()
		if cur, ok := t.primary.Get(oldKey); ok && cur == id {
			t.primary.Delete(oldKey)
		}
		t.primary.Unlock()
	}
	for _, sec := range t.secondaryList() {
		oldKey := indexKey(buf[:0], sec.meta, v, id)
		keepKey := indexKey(keepBuf[:0], sec.meta, keep, id)
		if !bytes.Equal(oldKey, keepKey) {
			sec.tree.Lock()
			sec.tree.Delete(oldKey)
			sec.tree.Unlock()
		}
	}
}

// PrimaryLookup finds the row id for an exact primary-key match; key is the
// encoded primary key (sqlval.AppendKey of its columns).
func (t *Table) PrimaryLookup(key []byte) (RowID, bool) {
	if t.primary == nil {
		return 0, false
	}
	t.primary.RLock()
	id, ok := t.primary.Get(key)
	t.primary.RUnlock()
	return id, ok
}

// IndexEntry is one materialized index hit: the physical key, encoded, and
// the row id it points at. Because updates add entries for every version
// image, a row can appear under several keys of one index; readers must
// verify the entry key against the version they actually see
// (VerifyPrimary/VerifySecondary) or they would observe duplicates. Key is
// the tree's own copy: it stays valid and unchanged after the index latch is
// released (btree keys), and it never aliases a row record.
type IndexEntry struct {
	Key []byte
	ID  RowID
}

// ScanPrimaryRange iterates index entries with from <= pk <= to in key
// order. Nil bounds are open; bounds may be key prefixes padded with
// sqlval.Top() to form inclusive upper bounds. Entries are materialized
// under the index latch and the callback runs after its release, so
// callbacks may freely re-enter the table (reads, lock acquisition).
func (t *Table) ScanPrimaryRange(from, to []byte, desc bool, fn func(e IndexEntry) bool) {
	for _, e := range t.AppendPrimaryRange(make([]IndexEntry, 0, 16), from, to, nil, desc, 0) {
		if !fn(e) {
			return
		}
	}
}

// VerifyPrimary reports whether a row image still carries the primary key of
// the index entry that produced it. It encodes and compares column by
// column rather than building a key: this runs once per row on every index
// read.
func (t *Table) VerifyPrimary(e IndexEntry, data []sqlval.Value) bool {
	rest, ok := cutCols(e.Key, t.Meta.PKCols, data)
	return ok && len(rest) == 0
}

// VerifySecondary reports whether a row image still carries the indexed
// column values of the secondary-index entry that produced it (the entry's
// trailing row id is ignored).
func (t *Table) VerifySecondary(ord int, e IndexEntry, data []sqlval.Value) bool {
	_, ok := cutCols(e.Key, t.secondaryList()[ord].meta.Columns, data)
	return ok
}

// cutCols reports whether key begins with the encoding of data's columns
// cols, and returns the rest of key.
func cutCols(key []byte, cols []int, data []sqlval.Value) ([]byte, bool) {
	var buf [keyScratch]byte
	for _, c := range cols {
		enc := sqlval.AppendKey(buf[:0], data[c])
		if !bytes.HasPrefix(key, enc) {
			return nil, false
		}
		key = key[len(enc):]
	}
	return key, true
}

// SecondaryIndexes exposes the table's secondary index metadata, in ordinal
// order. The slice is freshly built; callers may keep it.
func (t *Table) SecondaryIndexes() []*catalog.Index {
	secs := t.secondaryList()
	metas := make([]*catalog.Index, len(secs))
	for i, sec := range secs {
		metas[i] = sec.meta
	}
	return metas
}

// ScanSecondaryRange iterates index entries with from <= key <= to over
// physical secondary-index keys (indexed columns plus a trailing row id).
// Callers build encoded prefix bounds directly: a bare prefix is an
// inclusive lower bound, and a prefix extended with sqlval.Top() is an
// inclusive upper bound. The same materialize-then-callback discipline as ScanPrimaryRange
// applies.
func (t *Table) ScanSecondaryRange(ord int, from, to []byte, desc bool, fn func(e IndexEntry) bool) {
	for _, e := range t.AppendSecondaryRange(make([]IndexEntry, 0, 16), ord, from, to, nil, desc, 0) {
		if !fn(e) {
			return
		}
	}
}

// Truncate drops all rows and index entries. Callers must ensure no
// concurrent transactions touch the table (the engine takes care of this).
func (t *Table) Truncate() {
	// Drop retired slots with the segments they point into, and hold off a
	// concurrent background vacuum pass for the duration.
	t.vacMu.Lock()
	defer t.vacMu.Unlock()
	t.limbo = nil
	if t.primary != nil {
		t.primary.Lock()
		t.primary.Tree = *btree.New()
		t.primary.Unlock()
	}
	for _, sec := range t.secondaryList() {
		sec.tree.Lock()
		sec.tree.Tree = *btree.New()
		sec.tree.Unlock()
	}
	t.resetSegments()
}
