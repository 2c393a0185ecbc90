package storage

import (
	"cmp"
	"slices"
)

// Vacuum follows the write set. A row only ever gains reclaimable work — a
// superseded chain tail or a committed delete — when a transaction that
// updated or deleted it commits, so the transaction layer records those rows
// at commit (txn.Manager's reclaim backlog) and a vacuum pass classifies
// exactly them, once the low-watermark (txn.Horizon) reaches their commit
// timestamp. Inserts, claims and aborted writes leave nothing behind and are
// never visited; neither is the bulk of a table that nobody writes. A pass
// costs what the workload wrote since the last one, not what the tables hold.
//
// Version-chain reclamation is epoch-based. Reclaim unlinks dead rows
// immediately — row slots emptied with a lock-free compare-and-swap, index
// entries deleted in one batched latch hold per index — but does NOT hand
// the slots back to the allocator. Instead it retires them to a limbo batch
// stamped with the commit clock at unlink time ("now"). Every transaction
// that was active at the unlink, and so could still resolve a stale index
// entry or scan cursor to one of those slots, has a snapshot at or below
// that stamp; once the transaction low-watermark advances strictly past it,
// nothing that could observe the old occupant is alive, and ReapLimbo
// recycles the whole batch onto the segment free lists, one lock hold per
// segment.
//
// A pass takes no row latches: classification reads the atomic timestamps,
// and a committed-dead version can never be revived, so the verdict is
// stable. Readers never block: stale index entries and detached chain tails
// are tolerated by the package's re-validation discipline, and limbo
// deferral guarantees a slot is never recycled while a transaction that saw
// its previous occupant's index entries is still running.

// Candidate is a row that a committed update or delete may have left
// reclaimable work in: its id and the row that occupied the slot at commit.
type Candidate struct {
	ID  RowID
	Row *Row
}

// VacuumStats counts one pass's work.
type VacuumStats struct {
	Visited   int // candidates classified (the slot still held the row)
	Reclaimed int // dead rows unindexed, unlinked and retired to limbo
	Pruned    int // live rows whose chain tail was cut
}

// Add accumulates o into s.
func (s *VacuumStats) Add(o VacuumStats) {
	s.Visited += o.Visited
	s.Reclaimed += o.Reclaimed
	s.Pruned += o.Pruned
}

// limboBatch is one pass's worth of unlinked slots of a table, awaiting the
// epoch low-watermark. Its ids may span segments. Guarded by Table.vacMu.
type limboBatch struct {
	retireTS uint64 // commit clock at unlink time
	ids      []RowID
}

// classify is the vacuum's verdict on one row at horizon: dead when its
// newest version is committed-deleted at or below horizon (no reader can
// ever see it again), otherwise the version whose older tail no reader at
// horizon needs (nil when there is none to cut).
func classify(row *Row, horizon uint64) (dead bool, cut *Version) {
	v := row.Latest()
	if v != nil && committed(v.Begin()) && committed(v.End()) &&
		v.End() != Infinity && v.End() <= horizon {
		return true, nil
	}
	for cur := v; cur != nil; cur = cur.Next() {
		if committed(cur.Begin()) && cur.Begin() <= horizon {
			if cur.Next() != nil {
				return false, cur
			}
			return false, nil
		}
	}
	return false, nil
}

// Reclaim vacuums the candidate rows of this table at horizon: dead rows are
// unlinked, unindexed and retired to limbo stamped now (the current commit
// clock, see txn.Manager.Clock); live rows get their chain tail pruned. A
// candidate whose slot no longer holds its row — already unlinked, or
// recycled for another row — is skipped, so repeated and stale candidates
// are harmless. cands is sorted by id in place. Passes serialize on vacMu;
// Reclaim never blocks readers, and writers only contend with it on index
// latches.
func (t *Table) Reclaim(cands []Candidate, horizon, now uint64) VacuumStats {
	t.vacMu.Lock()
	defer t.vacMu.Unlock()

	slices.SortFunc(cands, func(a, b Candidate) int { return cmp.Compare(a.ID, b.ID) })
	var st VacuumStats
	dead := t.vacDead[:0]
	for i, c := range cands {
		if i > 0 && cands[i-1] == c {
			continue
		}
		if cur, ok := t.Row(c.ID); !ok || cur != c.Row {
			continue
		}
		st.Visited++
		isDead, cut := classify(c.Row, horizon)
		if !isDead {
			// Only vacuum writes next pointers (vacMu), and a reader that
			// already loaded the cut point's next keeps a coherent detached
			// tail, so no latch is needed.
			if cut != nil {
				cut.SetNext(nil)
				st.Pruned++
			}
			continue
		}
		// Empty the slot first: the compare-and-swap makes a racing release
		// (rollback) harmless, exactly like freeRow, and the slot cannot be
		// recycled underneath us because it only reaches the free list when
		// its limbo batch is reaped. A reader resolving one of the row's
		// index entries meanwhile finds an empty slot, which is what it
		// would conclude from the dead row anyway.
		if t.unlinkRow(c.ID, c.Row) {
			dead = append(dead, c)
		}
	}
	t.vacDead = dead
	if len(dead) == 0 {
		return st
	}
	st.Reclaimed = len(dead)

	// Unlink index entries in one latch hold per index. The primary entry
	// is guarded (a concurrent re-insert of the key may own it now); the
	// secondary keys carry the row id, so unconditional deletes are safe.
	var buf [keyScratch]byte
	if t.primary != nil {
		t.primary.Lock()
		for _, c := range dead {
			for img := c.Row.Latest(); img != nil; img = img.Next() {
				key := t.pkKey(buf[:0], img)
				if cur, ok := t.primary.Get(key); ok && cur == c.ID {
					t.primary.Delete(key)
				}
			}
		}
		t.primary.Unlock()
	}
	for _, sec := range t.secondaryList() {
		sec.tree.Lock()
		for _, c := range dead {
			for img := c.Row.Latest(); img != nil; img = img.Next() {
				sec.tree.Delete(indexKey(buf[:0], sec.meta, img, c.ID))
			}
		}
		sec.tree.Unlock()
	}

	ids := make([]RowID, len(dead))
	for i, c := range dead {
		ids[i] = c.ID
	}
	t.limbo = append(t.limbo, limboBatch{retireTS: now, ids: ids})
	clear(dead) // drop the row pointers so the scratch pins nothing
	return st
}

// ReapLimbo recycles every limbo batch whose retirement stamp the
// low-watermark has strictly passed, and returns the number of slots still
// in limbo.
func (t *Table) ReapLimbo(horizon uint64) int {
	t.vacMu.Lock()
	defer t.vacMu.Unlock()
	keep := t.limbo[:0]
	left := 0
	for _, b := range t.limbo {
		if b.retireTS < horizon {
			t.recycleIDs(b.ids)
		} else {
			keep = append(keep, b)
			left += len(b.ids)
		}
	}
	clear(t.limbo[len(keep):])
	t.limbo = keep
	return left
}

// LimboSlots reports the number of retired slots awaiting the low-watermark,
// for tests and introspection.
func (t *Table) LimboSlots() int {
	t.vacMu.Lock()
	defer t.vacMu.Unlock()
	n := 0
	for _, b := range t.limbo {
		n += len(b.ids)
	}
	return n
}

// Unreclaimed sweeps every occupied slot with the vacuum's own
// classification and counts the rows a pass at horizon would still reclaim
// (dead) or prune (prunable). It changes nothing. Tests use it to prove the
// write-set-driven vacuum left nothing behind; it costs a full table scan.
func (t *Table) Unreclaimed(horizon uint64) (dead, prunable int) {
	t.ScanAll(func(_ RowID, row *Row) bool {
		isDead, cut := classify(row, horizon)
		if isDead {
			dead++
		} else if cut != nil {
			prunable++
		}
		return true
	})
	return dead, prunable
}
