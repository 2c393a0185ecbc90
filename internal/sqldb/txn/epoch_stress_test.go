package txn

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqlval"
)

// bumpClock commits a trivial write so the commit clock advances; epoch
// tests use it to move the low-watermark past a limbo batch's retire stamp.
func bumpClock(t *testing.T, m *Manager, tbl *storage.Table, id int64) {
	t.Helper()
	tx := m.Begin(false)
	rid, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(id)))
	if !ok {
		t.Fatalf("bump row %d missing", id)
	}
	data, err := tx.Read(tbl, rid, true)
	if err != nil || data == nil {
		t.Fatalf("bump row %d unreadable: %v", id, err)
	}
	if err := tx.Update(tbl, rid, row(id, data.Col(1).Int()+1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochReclamationGatesRecycling pins the deterministic contract of the
// limbo list: vacuum unlinks committed-dead rows immediately, but their
// slots return to the allocator only once the epoch low-watermark strictly
// passes the batch's retire stamp — i.e. after every transaction that was
// active at unlink time has finished.
func TestEpochReclamationGatesRecycling(t *testing.T) {
	m := NewManager(MVCC)
	tbl := newAccountsTable(t)
	const dead = 16
	seed(t, m, tbl, dead+1) // +1: row `dead` survives as the clock-bump row

	// Delete the first `dead` rows and commit, so they are committed-dead.
	tx := m.Begin(false)
	for id := int64(0); id < dead; id++ {
		rid, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(id)))
		if !ok {
			t.Fatalf("row %d missing", id)
		}
		if err := tx.Delete(tbl, rid); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Pin a snapshot that postdates the deletes, so vacuum may classify
	// them dead while the pin is still registered in the epoch table.
	pin := m.Begin(true)
	bumpClock(t, m, tbl, dead) // ensure clock > pin.snap

	if n := m.Vacuum(); n != dead {
		t.Fatalf("vacuum retired %d rows, want %d", n, dead)
	}
	if got := tbl.RowCount(); got != 1 {
		t.Fatalf("RowCount after unlink = %d, want 1", got)
	}
	if got := tbl.LimboSlots(); got != dead {
		t.Fatalf("LimboSlots after unlink = %d, want %d", got, dead)
	}

	// While the pin is active the horizon cannot pass the retire stamp, so
	// repeated vacuums must leave the slots in limbo.
	m.Vacuum()
	if got := tbl.LimboSlots(); got != dead {
		t.Fatalf("LimboSlots with pinned snapshot = %d, want %d", got, dead)
	}

	// Release the pin and advance the clock past the retire stamp: the next
	// vacuum must recycle every limbo slot.
	if err := pin.Commit(); err != nil {
		t.Fatal(err)
	}
	bumpClock(t, m, tbl, dead)
	m.Vacuum()
	if got := tbl.LimboSlots(); got != 0 {
		t.Fatalf("LimboSlots after release = %d, want 0", got)
	}
}

// Epoch-stress geometry: churn keys live in [0, epochChurnSpan); each
// insert's payload is key*epochTagMul + a globally unique sequence, so any
// slot confusion (a reader resolving a recycled slot to another key's row
// image) shows up as a payload whose key quotient disagrees with the stored
// key.
const (
	epochChurnSpan = 24
	epochTagMul    = 1 << 20
	epochBumpID    = int64(epochChurnSpan) // dedicated clock-bump row
)

// TestEpochReclamationStress races insert/delete churn, snapshot point
// readers, batched sequential scans, an empty-transaction epoch hammer, and
// a hot vacuum loop, all under -race. Readers assert the value-tag
// invariant on every visible row; afterwards the limbo list must drain
// completely once the watermark advances.
func TestEpochReclamationStress(t *testing.T) {
	m := NewManager(MVCC)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 0)

	// The bump row is the only seeded row; churn rows come and go.
	tx := m.Begin(false)
	if err := tx.Insert(tbl, row(epochBumpID, 0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	iters := 600
	if testing.Short() {
		iters = 120
	}

	var writers, aux sync.WaitGroup
	var stop atomic.Bool
	var seq atomic.Int64
	start := func(wg *sync.WaitGroup, f func(r *rand.Rand)) {
		wg.Add(1)
		src := rand.Int63()
		go func() {
			defer wg.Done()
			f(rand.New(rand.NewSource(src)))
		}()
	}

	checkTag := func(data *storage.Version) {
		if data == nil {
			return
		}
		key, tag := data.Col(0).Int(), data.Col(1).Int()
		if key == epochBumpID {
			return
		}
		if tag/epochTagMul != key {
			t.Errorf("row with key %d carries tag %d (belongs to key %d): recycled slot leaked across epochs",
				key, tag, tag/epochTagMul)
		}
	}

	// Churn: insert a tagged row, commit, then delete it, leaving
	// committed-dead versions for the vacuum. Duplicate-key collisions
	// between workers are expected and ignored.
	for w := 0; w < 3; w++ {
		start(&writers, func(r *rand.Rand) {
			for i := 0; i < iters; i++ {
				key := r.Int63n(epochChurnSpan)
				tag := key*epochTagMul + seq.Add(1)%epochTagMul
				tx := m.Begin(false)
				if err := tx.Insert(tbl, row(key, tag)); err != nil {
					tx.Abort()
					continue
				}
				if tx.Commit() != nil {
					continue
				}
				tx = m.Begin(false)
				if rid, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(key))); ok {
					if tx.Delete(tbl, rid) == nil && tx.Commit() == nil {
						continue
					}
				}
				tx.Abort()
			}
		})
	}

	// Snapshot point readers: resolve each churn key through the primary
	// index and verify the tag of whatever version is visible.
	for w := 0; w < 2; w++ {
		start(&aux, func(r *rand.Rand) {
			for !stop.Load() {
				tx := m.Begin(true)
				for key := int64(0); key < epochChurnSpan; key++ {
					rid, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(key)))
					if !ok {
						continue
					}
					data, err := tx.Read(tbl, rid, false)
					if err != nil {
						break
					}
					if data != nil && sqlval.Compare(data.Col(0), sqlval.NewInt(key)) != 0 {
						// A stale index entry must be filtered by the key
						// check, never surfaced: this is the read
						// discipline the reclamation scheme preserves.
						if tbl.VerifyPrimary(storage.IndexEntry{Key: sqlval.AppendKey(nil, sqlval.NewInt(key)), ID: rid}, data.DecodeInto(nil)) {
							t.Errorf("primary entry for key %d verified against row with key %v", key, data.Col(0))
						}
						continue
					}
					checkTag(data)
				}
				tx.Commit()
			}
		})
	}

	// Batched sequential scans: the same path the executor's fast read
	// uses, resolving visibility directly against the snapshot view.
	start(&aux, func(r *rand.Rand) {
		var b storage.RowBatch
		for !stop.Load() {
			tx := m.Begin(true)
			view, ok := tx.FastReadView()
			if !ok {
				t.Error("FastReadView unavailable under MVCC")
				tx.Commit()
				return
			}
			for g, n := 0, tbl.Segments(); g < n; g++ {
				for cursor := int64(0); cursor >= 0; {
					cursor = tbl.ScanBatch(g, cursor, &b)
					for i := 0; i < b.N; i++ {
						if v := view.Visible(b.Rows[i]); v != nil {
							checkTag(v)
						}
					}
				}
			}
			tx.Commit()
		}
	})

	// Epoch hammer: rapid empty transactions churn the epoch slot table
	// (including its overflow path) while vacuum computes watermarks.
	start(&aux, func(r *rand.Rand) {
		for !stop.Load() {
			txs := make([]*Txn, 8)
			for i := range txs {
				txs[i] = m.Begin(true)
			}
			for _, tx := range txs {
				tx.Commit()
			}
		}
	})

	// Vacuum racing everything, including the watermark computation.
	start(&aux, func(r *rand.Rand) {
		for !stop.Load() {
			m.Vacuum()
		}
	})

	writers.Wait()
	stop.Store(true)
	aux.Wait()

	// Quiesced drain: after the clock passes the last retire stamp, two
	// vacuum passes (unlink, then reap) must leave no limbo slots, no dead
	// churn rows beyond the live set, and no chain a full sweep could prune.
	bumpClock(t, m, tbl, epochBumpID)
	m.Vacuum()
	bumpClock(t, m, tbl, epochBumpID)
	m.Vacuum()
	if got := tbl.LimboSlots(); got != 0 {
		t.Errorf("LimboSlots after quiesced drain = %d, want 0", got)
	}
	if dead, prunable := tbl.Unreclaimed(m.Horizon()); dead != 0 || prunable != 0 {
		t.Errorf("after the drain a full sweep finds %d dead rows and %d prunable tails", dead, prunable)
	}

	live := 0
	check := m.Begin(true)
	tbl.ScanAll(func(id storage.RowID, r *storage.Row) bool {
		data, err := check.Read(tbl, id, false)
		if err != nil {
			t.Fatal(err)
		}
		if data != nil {
			checkTag(data)
			live++
		}
		return true
	})
	check.Commit()
	if got := tbl.RowCount(); got != live {
		t.Errorf("RowCount = %d but only %d rows visible: dead rows survived the drain", got, live)
	}
}
