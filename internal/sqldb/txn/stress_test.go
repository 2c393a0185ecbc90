package txn

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"benchpress/internal/sqldb/catalog"
	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqlval"
)

// TestStorageStressConcurrent hammers one table with concurrent transfers,
// insert/delete churn (including deliberate duplicate-key collisions),
// consistent-sum readers, sequential scans, an online vacuum loop, and an
// AddIndex issued mid-run — the full surface the striped row store and
// per-index latches must keep coherent. Afterward it checks the money
// invariant, index/row agreement in both directions, and that the
// write-set-driven vacuum reclaimed every dead row and slot.
// Run it under -race: that is the point.
func TestStorageStressConcurrent(t *testing.T) {
	for _, mode := range []Mode{Locking, MVCC} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			stressOneTable(t, mode)
		})
	}
}

const (
	stressAccounts  = 64  // fixed rows carrying the conserved balance
	stressChurnLo   = 500 // churn workers insert/delete ids in [lo, lo+span)
	stressChurnSpan = 32
	stressTotal     = stressAccounts * 100
)

func stressIters(t *testing.T) int {
	t.Helper()
	if testing.Short() {
		return 150
	}
	return 800
}

func stressTable(t *testing.T) (*catalog.Catalog, *storage.Table) {
	t.Helper()
	cat := catalog.New()
	meta, err := cat.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: sqlval.KindInt, NotNull: true},
		{Name: "balance", Kind: sqlval.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return cat, storage.NewTable(meta)
}

func stressOneTable(t *testing.T, mode Mode) {
	m := NewManager(mode)
	cat, tbl := stressTable(t)
	seed(t, m, tbl, stressAccounts)
	iters := stressIters(t)

	// Writers run a fixed iteration budget; readers and the vacuum loop run
	// until the writers are done (stop), so the full mix overlaps for the
	// whole run.
	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	start := func(wg *sync.WaitGroup, f func(r *rand.Rand)) {
		wg.Add(1)
		src := rand.Int63()
		go func() {
			defer wg.Done()
			f(rand.New(rand.NewSource(src)))
		}()
	}

	// Transfers between fixed accounts: the sum must be conserved.
	for w := 0; w < 2; w++ {
		start(&writers, func(r *rand.Rand) {
			for i := 0; i < iters; i++ {
				from := r.Int63n(stressAccounts)
				to := r.Int63n(stressAccounts)
				if from != to {
					transfer(m, tbl, from, to, 1+r.Int63n(5))
				}
			}
		})
	}

	// Churn: insert a zero-balance row, sometimes roll it back, otherwise
	// commit and delete it again. Two workers share the id range so
	// concurrent same-key inserts exercise the duplicate check.
	for w := 0; w < 2; w++ {
		start(&writers, func(r *rand.Rand) {
			for i := 0; i < iters; i++ {
				id := stressChurnLo + r.Int63n(stressChurnSpan)
				tx := m.Begin(false)
				if err := tx.Insert(tbl, row(id, 0)); err != nil {
					tx.Abort() // duplicate or write conflict: both expected
					continue
				}
				if r.Intn(4) == 0 {
					tx.Abort() // exercise insert rollback
					continue
				}
				if tx.Commit() != nil {
					continue
				}
				tx = m.Begin(false)
				if rid, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(id))); ok {
					if tx.Delete(tbl, rid) == nil {
						tx.Commit()
						continue
					}
				}
				tx.Abort()
			}
		})
	}

	// Consistent-sum reader: fixed balances plus zero-balance churn rows
	// must always total stressTotal. Under Locking a wait-die abort can cut
	// the read short; only completed sweeps are judged.
	start(&readers, func(r *rand.Rand) {
		for !stop.Load() {
			tx := m.Begin(true)
			sum, complete := int64(0), true
			for id := int64(0); id < stressAccounts; id++ {
				rid, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(id)))
				if !ok {
					complete = false
					break
				}
				data, err := tx.Read(tbl, rid, false)
				if err != nil || data == nil {
					complete = false
					break
				}
				sum += data.Col(1).Int()
			}
			if complete && sum != stressTotal {
				t.Errorf("inconsistent sum %d, want %d", sum, stressTotal)
			}
			tx.Commit()
		}
	})

	// Sequential scan: every visible row's primary key must resolve back
	// through the primary index to a live row carrying that key.
	start(&readers, func(r *rand.Rand) {
		for !stop.Load() {
			tx := m.Begin(true)
			tbl.ScanAll(func(id storage.RowID, row *storage.Row) bool {
				data, err := tx.Read(tbl, id, false)
				if err != nil || data == nil {
					return true // invisible or lost a wait-die race
				}
				pk := sqlval.AppendKey(nil, data.Col(0))
				rid, ok := tbl.PrimaryLookup(pk)
				if !ok {
					t.Errorf("visible row %d (pk %v) missing from primary index", id, data.Col(0))
					return false
				}
				got, err := tx.Read(tbl, rid, false)
				if err == nil && got != nil && sqlval.Compare(got.Col(0), data.Col(0)) != 0 {
					t.Errorf("primary index maps pk %v to row with pk %v", data.Col(0), got.Col(0))
					return false
				}
				return true
			})
			tx.Commit()
		}
	})

	// Online vacuum racing everything above.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			m.Vacuum()
		}
	}()

	// DDL mid-run: publish-then-backfill must not lose concurrent writes.
	idx, err := cat.AddIndex("accounts", "accounts_balance", []string{"balance"}, false)
	if err != nil {
		t.Fatal(err)
	}
	tbl.AddIndex(idx)

	writers.Wait()
	stop.Store(true)
	readers.Wait()

	verifyStress(t, m, tbl)
}

// verifyStress checks the quiesced table: conserved money, bidirectional
// index/row agreement (including the index added mid-run), and vacuum
// reclaiming every churn slot.
func verifyStress(t *testing.T, m *Manager, tbl *storage.Table) {
	t.Helper()

	// Drain every churn row so only the fixed accounts remain live.
	tx := m.Begin(false)
	for id := stressChurnLo; id < stressChurnLo+stressChurnSpan; id++ {
		if rid, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(int64(id)))); ok {
			if data, err := tx.Read(tbl, rid, true); err == nil && data != nil {
				if err := tx.Delete(tbl, rid); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	check := m.Begin(true)
	sum, visible := int64(0), 0
	tbl.ScanAll(func(id storage.RowID, row *storage.Row) bool {
		data, err := check.Read(tbl, id, false)
		if err != nil {
			t.Fatal(err)
		}
		if data == nil {
			return true
		}
		visible++
		sum += data.Col(1).Int()
		// Row → primary index.
		rid, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, data.Col(0)))
		if !ok || rid != id {
			t.Errorf("row %d (pk %v) not canonical in primary index (got %d, %v)", id, data.Col(0), rid, ok)
		}
		return true
	})
	if visible != stressAccounts {
		t.Errorf("visible rows = %d, want %d", visible, stressAccounts)
	}
	if sum != stressTotal {
		t.Errorf("final sum = %d, want %d", sum, stressTotal)
	}

	// Secondary index added mid-run: every live row must be reachable, and
	// verified entries must cover exactly the live set.
	found := map[storage.RowID]bool{}
	tbl.ScanSecondaryRange(0, nil, nil, false, func(e storage.IndexEntry) bool {
		data, err := check.Read(tbl, e.ID, false)
		if err != nil || data == nil {
			return true
		}
		if tbl.VerifySecondary(0, e, data.DecodeInto(nil)) {
			found[e.ID] = true
		}
		return true
	})
	if len(found) != stressAccounts {
		t.Errorf("secondary index covers %d live rows, want %d", len(found), stressAccounts)
	}

	check.Commit()

	// With no active transactions, draining the backlog must reclaim every
	// dead churn slot and prune every chain: a full sweep with the vacuum's
	// own classification finds nothing left.
	m.Vacuum()
	if got := tbl.RowCount(); got != stressAccounts {
		t.Errorf("RowCount after vacuum = %d, want %d", got, stressAccounts)
	}
	if dead, prunable := tbl.Unreclaimed(m.Horizon()); dead != 0 || prunable != 0 {
		t.Errorf("after the drain a full sweep finds %d dead rows and %d prunable tails", dead, prunable)
	}
	if got := m.VacuumBacklog(); got != 0 {
		t.Errorf("VacuumBacklog after the drain = %d, want 0", got)
	}
}
