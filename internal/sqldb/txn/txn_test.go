package txn

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"benchpress/internal/sqldb/catalog"
	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqlval"
)

// newAccountsTable builds a two-column (id INT PK, balance INT) table.
func newAccountsTable(t *testing.T) *storage.Table {
	t.Helper()
	cat := catalog.New()
	meta, err := cat.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: sqlval.KindInt, NotNull: true},
		{Name: "balance", Kind: sqlval.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	return storage.NewTable(meta)
}

func row(id, balance int64) []sqlval.Value {
	return []sqlval.Value{sqlval.NewInt(id), sqlval.NewInt(balance)}
}

func seed(t *testing.T, m *Manager, tbl *storage.Table, n int) {
	t.Helper()
	tx := m.Begin(false)
	for i := 0; i < n; i++ {
		if err := tx.Insert(tbl, row(int64(i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func readBalance(t *testing.T, m *Manager, tbl *storage.Table, id int64) (int64, bool) {
	t.Helper()
	tx := m.Begin(true)
	defer tx.Commit()
	rid, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(id)))
	if !ok {
		return 0, false
	}
	data, err := tx.Read(tbl, rid, false)
	if err != nil {
		t.Fatal(err)
	}
	if data == nil {
		return 0, false
	}
	return data.Col(1).Int(), true
}

func allModes() []Mode { return []Mode{Serial, Locking, MVCC} }

func TestCommitMakesVisible(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewManager(mode)
			tbl := newAccountsTable(t)
			seed(t, m, tbl, 3)
			if bal, ok := readBalance(t, m, tbl, 1); !ok || bal != 100 {
				t.Fatalf("balance=%d ok=%v", bal, ok)
			}
		})
	}
}

func TestAbortRollsBackInsert(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewManager(mode)
			tbl := newAccountsTable(t)
			tx := m.Begin(false)
			if err := tx.Insert(tbl, row(1, 50)); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
			if _, ok := readBalance(t, m, tbl, 1); ok {
				t.Fatal("aborted insert is visible")
			}
			if tbl.RowCount() != 0 {
				t.Fatalf("row slot not reclaimed: %d", tbl.RowCount())
			}
		})
	}
}

func TestAbortRollsBackUpdate(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewManager(mode)
			tbl := newAccountsTable(t)
			seed(t, m, tbl, 1)
			rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))
			tx := m.Begin(false)
			if _, err := tx.Read(tbl, rid, true); err != nil {
				t.Fatal(err)
			}
			if err := tx.Update(tbl, rid, row(0, 999)); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
			if bal, ok := readBalance(t, m, tbl, 0); !ok || bal != 100 {
				t.Fatalf("after abort balance=%d ok=%v, want 100", bal, ok)
			}
		})
	}
}

func TestAbortRollsBackDelete(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewManager(mode)
			tbl := newAccountsTable(t)
			seed(t, m, tbl, 1)
			rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))
			tx := m.Begin(false)
			if err := tx.Delete(tbl, rid); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
			if _, ok := readBalance(t, m, tbl, 0); !ok {
				t.Fatal("aborted delete removed the row")
			}
		})
	}
}

func TestDeleteCommit(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewManager(mode)
			tbl := newAccountsTable(t)
			seed(t, m, tbl, 2)
			rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))
			tx := m.Begin(false)
			if err := tx.Delete(tbl, rid); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if _, ok := readBalance(t, m, tbl, 0); ok {
				t.Fatal("committed delete still visible")
			}
			if _, ok := readBalance(t, m, tbl, 1); !ok {
				t.Fatal("unrelated row vanished")
			}
		})
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewManager(mode)
			tbl := newAccountsTable(t)
			seed(t, m, tbl, 1)
			tx := m.Begin(false)
			err := tx.Insert(tbl, row(0, 1))
			var dup *storage.ErrDuplicateKey
			if !errors.As(err, &dup) {
				t.Fatalf("err = %v, want duplicate key", err)
			}
			tx.Abort()
		})
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewManager(mode)
			tbl := newAccountsTable(t)
			seed(t, m, tbl, 1)
			rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))
			tx := m.Begin(false)
			if err := tx.Delete(tbl, rid); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx = m.Begin(false)
			if err := tx.Insert(tbl, row(0, 777)); err != nil {
				t.Fatalf("re-insert after delete: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if bal, ok := readBalance(t, m, tbl, 0); !ok || bal != 777 {
				t.Fatalf("balance=%d ok=%v", bal, ok)
			}
		})
	}
}

func TestReadOwnWrites(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewManager(mode)
			tbl := newAccountsTable(t)
			seed(t, m, tbl, 1)
			rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))
			tx := m.Begin(false)
			if err := tx.Update(tbl, rid, row(0, 42)); err != nil {
				t.Fatal(err)
			}
			data, err := tx.Read(tbl, rid, false)
			if err != nil || data == nil || data.Col(1).Int() != 42 {
				t.Fatalf("own write invisible: %v %v", data, err)
			}
			tx.Abort()
		})
	}
}

func TestMVCCSnapshotIsolation(t *testing.T) {
	m := NewManager(MVCC)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 1)
	rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))

	reader := m.Begin(true) // snapshot taken now
	writer := m.Begin(false)
	if err := writer.Update(tbl, rid, row(0, 500)); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	// The reader's snapshot predates the commit: it must see 100.
	data, err := reader.Read(tbl, rid, false)
	if err != nil || data == nil {
		t.Fatalf("read: %v %v", data, err)
	}
	if data.Col(1).Int() != 100 {
		t.Fatalf("snapshot read = %d, want 100", data.Col(1).Int())
	}
	reader.Commit()
	if bal, _ := readBalance(t, m, tbl, 0); bal != 500 {
		t.Fatalf("new snapshot = %d, want 500", bal)
	}
}

func TestMVCCFirstUpdaterWins(t *testing.T) {
	m := NewManager(MVCC)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 1)
	rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))

	t1 := m.Begin(false)
	t2 := m.Begin(false)
	if err := t1.Update(tbl, rid, row(0, 111)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update(tbl, rid, row(0, 222)); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("second writer err = %v, want ErrWriteConflict", err)
	}
	t2.Abort()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if bal, _ := readBalance(t, m, tbl, 0); bal != 111 {
		t.Fatalf("balance = %d", bal)
	}
}

func TestMVCCConflictAfterSnapshot(t *testing.T) {
	m := NewManager(MVCC)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 1)
	rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))

	t1 := m.Begin(false) // snapshot before t2's commit
	t2 := m.Begin(false)
	if err := t2.Update(tbl, rid, row(0, 222)); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Update(tbl, rid, row(0, 111)); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale writer err = %v, want ErrWriteConflict", err)
	}
	t1.Abort()
}

func TestMVCCClaimThenUpdateCommit(t *testing.T) {
	// SELECT FOR UPDATE followed by UPDATE in the same txn must leave
	// exactly one live version after commit.
	m := NewManager(MVCC)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 1)
	rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))
	tx := m.Begin(false)
	if _, err := tx.Read(tbl, rid, true); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update(tbl, rid, row(0, 321)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if bal, ok := readBalance(t, m, tbl, 0); !ok || bal != 321 {
		t.Fatalf("balance=%d ok=%v", bal, ok)
	}
	// An old version must not have been resurrected: a fresh snapshot sees
	// exactly the new value, and the chain head is committed-live.
	r, _ := tbl.Row(rid)
	head := r.Latest()
	if head.End() != storage.Infinity {
		t.Fatalf("head.End = %x, want Infinity", head.End())
	}
	if head.Col(1).Int() != 321 {
		t.Fatalf("head value = %d", head.Col(1).Int())
	}
}

func TestMVCCClaimOnlyCommitRestoresLiveness(t *testing.T) {
	m := NewManager(MVCC)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 1)
	rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))
	tx := m.Begin(false)
	if _, err := tx.Read(tbl, rid, true); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, _ := tbl.Row(rid)
	if r.Latest().End() != storage.Infinity {
		t.Fatal("claim-only commit left End marked")
	}
	// Row must be writable by others afterwards.
	t2 := m.Begin(false)
	if err := t2.Update(tbl, rid, row(0, 5)); err != nil {
		t.Fatal(err)
	}
	t2.Commit()
}

func TestLockingConflictWaitDie(t *testing.T) {
	m := NewManager(Locking)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 1)
	rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))

	older := m.Begin(false) // smaller id
	younger := m.Begin(false)
	if _, err := older.Read(tbl, rid, true); err != nil {
		t.Fatal(err)
	}
	// The younger transaction must die rather than wait.
	if _, err := younger.Read(tbl, rid, true); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("younger err = %v, want ErrDeadlock", err)
	}
	younger.Abort()
	older.Commit()
}

func TestLockingOlderWaits(t *testing.T) {
	m := NewManager(Locking)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 1)
	rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))

	older := m.Begin(false)
	younger := m.Begin(false)
	if err := younger.Update(tbl, rid, row(0, 9)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := older.Read(tbl, rid, false) // S lock: must wait for younger
		done <- err
	}()
	// Give the older txn a moment to start waiting, then release.
	if err := younger.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("older read after wait: %v", err)
	}
	older.Commit()
}

func TestLockingSharedReaders(t *testing.T) {
	m := NewManager(Locking)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 1)
	rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))
	t1 := m.Begin(false)
	t2 := m.Begin(false)
	if _, err := t1.Read(tbl, rid, false); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read(tbl, rid, false); err != nil {
		t.Fatalf("shared readers should not conflict: %v", err)
	}
	t1.Commit()
	t2.Commit()
}

// Transfer money between accounts concurrently; total balance is invariant.
func TestConcurrentTransfersInvariant(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewManager(mode)
			tbl := newAccountsTable(t)
			const accounts = 10
			const workers = 8
			const transfersPerWorker = 200
			seed(t, m, tbl, accounts)

			var wg sync.WaitGroup
			var retries atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seedv int64) {
					defer wg.Done()
					rng := seedv
					next := func(n int64) int64 {
						rng = rng*6364136223846793005 + 1442695040888963407
						v := (rng >> 33) % n
						if v < 0 {
							v += n
						}
						return v
					}
					for i := 0; i < transfersPerWorker; i++ {
						from := next(accounts)
						to := next(accounts)
						if from == to {
							continue
						}
						for attempt := 0; attempt < 50; attempt++ {
							if transfer(m, tbl, from, to, 1) {
								break
							}
							retries.Add(1)
						}
					}
				}(int64(w + 1))
			}
			wg.Wait()

			total := int64(0)
			tx := m.Begin(true)
			tbl.ScanAll(func(id storage.RowID, r *storage.Row) bool {
				data, err := tx.Read(tbl, id, false)
				if err != nil {
					t.Errorf("read: %v", err)
					return false
				}
				if data != nil {
					total += data.Col(1).Int()
				}
				return true
			})
			tx.Commit()
			if total != accounts*100 {
				t.Fatalf("total balance = %d, want %d (retries=%d)", total, accounts*100, retries.Load())
			}
		})
	}
}

// transfer moves amount between accounts, returning false when the
// transaction had to abort (caller retries).
func transfer(m *Manager, tbl *storage.Table, from, to, amount int64) bool {
	tx := m.Begin(false)
	ok := func() bool {
		// Lock in id order to avoid wait-die livelock storms.
		a, b := from, to
		if b < a {
			a, b = b, a
		}
		for _, id := range []int64{a, b} {
			rid, found := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(id)))
			if !found {
				return false
			}
			data, err := tx.Read(tbl, rid, true)
			if err != nil || data == nil {
				return false
			}
			delta := amount
			if id == from {
				delta = -amount
			}
			if err := tx.Update(tbl, rid, row(id, data.Col(1).Int()+delta)); err != nil {
				return false
			}
		}
		return true
	}()
	if !ok {
		tx.Abort()
		return false
	}
	return tx.Commit() == nil
}

func TestVacuumReclaimsDeletedRows(t *testing.T) {
	m := NewManager(MVCC)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 100)
	tx := m.Begin(false)
	for i := int64(0); i < 50; i++ {
		rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(i)))
		if err := tx.Delete(tbl, rid); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	reclaimed := m.Vacuum()
	if reclaimed != 50 {
		t.Fatalf("reclaimed %d, want 50", reclaimed)
	}
	if tbl.RowCount() != 50 {
		t.Fatalf("RowCount = %d, want 50", tbl.RowCount())
	}
	for i := int64(50); i < 100; i++ {
		if bal, ok := readBalance(t, m, tbl, i); !ok || bal != 100 {
			t.Fatalf("row %d lost after vacuum", i)
		}
	}
}

func TestOnCommitHook(t *testing.T) {
	m := NewManager(MVCC)
	var calls, writes atomic.Int64
	m.OnCommit = func(tx *Txn) error {
		calls.Add(1)
		writes.Add(int64(len(tx.WriteSet())))
		return nil
	}
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 3) // one commit with 3 writes
	ro := m.Begin(true)
	ro.Commit() // read-only commit must not call the hook
	if calls.Load() != 1 || writes.Load() != 3 {
		t.Fatalf("calls=%d writes=%d", calls.Load(), writes.Load())
	}
}

func TestTxnDoneErrors(t *testing.T) {
	m := NewManager(MVCC)
	tbl := newAccountsTable(t)
	tx := m.Begin(false)
	tx.Commit()
	if err := tx.Insert(tbl, row(1, 1)); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("err = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit err = %v", err)
	}
	tx.Abort() // must be a no-op, not a panic
}

func TestIsRetryable(t *testing.T) {
	if !IsRetryable(ErrWriteConflict) || !IsRetryable(ErrDeadlock) {
		t.Error("conflict errors must be retryable")
	}
	if IsRetryable(ErrTxnDone) || IsRetryable(errors.New("other")) {
		t.Error("non-conflict errors must not be retryable")
	}
}

// TestUpdateRespectsUniqueIndex pins the update-path uniqueness contract:
// an update moving a row onto a unique key held by another live row must
// fail (as a retryable conflict) and leave both rows and the index exactly
// as they were — updates previously installed unique entries unchecked,
// which let a racing update/insert pair commit duplicates.
func TestUpdateRespectsUniqueIndex(t *testing.T) {
	for _, mode := range []Mode{Locking, MVCC} {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewManager(mode)
			cat, tbl := stressTable(t)
			idx, err := cat.AddIndex("accounts", "u_balance", []string{"balance"}, true)
			if err != nil {
				t.Fatal(err)
			}
			tbl.AddIndex(idx)

			tx := m.Begin(false)
			for i, bal := range []int64{100, 200} {
				if err := tx.Insert(tbl, row(int64(i+1), bal)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			rid2, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(2)))

			// Moving row 2 onto row 1's unique balance must fail retryably.
			tx = m.Begin(false)
			if _, err := tx.Read(tbl, rid2, true); err != nil {
				t.Fatal(err)
			}
			err = tx.Update(tbl, rid2, row(2, 100))
			if err == nil {
				t.Fatal("update onto an occupied unique key succeeded")
			}
			if !IsRetryable(err) {
				t.Fatalf("unique-violation error %v is not retryable", err)
			}
			// The same transaction stays usable: a non-conflicting update
			// must still go through.
			if err := tx.Update(tbl, rid2, row(2, 300)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			check := m.Begin(true)
			data, err := check.Read(tbl, rid2, false)
			if err != nil || data == nil {
				t.Fatalf("row 2 unreadable after failed update: %v", err)
			}
			if got := data.Col(1).Int(); got != 300 {
				t.Fatalf("row 2 balance = %d, want 300", got)
			}
			check.Commit()
		})
	}
}

// TestInsertRollbackRestoresDisplacedPrimaryEntry pins the index/rollback
// contract that Insert displacing a committed-dead row's primary entry and
// then aborting must restore the stolen mapping: until vacuum, snapshots
// older than the delete still resolve the key through that entry.
func TestInsertRollbackRestoresDisplacedPrimaryEntry(t *testing.T) {
	for _, mode := range []Mode{Locking, MVCC} {
		t.Run(mode.String(), func(t *testing.T) {
			m := NewManager(mode)
			tbl := newAccountsTable(t)

			tx := m.Begin(false)
			if err := tx.Insert(tbl, row(1, 5)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			origID, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(1)))
			if !ok {
				t.Fatal("inserted key missing from primary index")
			}

			// Pin a snapshot that predates the delete (MVCC only: under
			// Locking a reader would block the writers below).
			var old *Txn
			if mode == MVCC {
				old = m.Begin(true)
			}

			tx = m.Begin(false)
			if err := tx.Delete(tbl, origID); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			// Reuse the dead row's key (displacing its entry), then abort.
			tx = m.Begin(false)
			if err := tx.Insert(tbl, row(1, 7)); err != nil {
				t.Fatal(err)
			}
			tx.Abort()

			rid, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(1)))
			if !ok {
				t.Fatal("rolled-back insert dropped the displaced primary entry")
			}
			if rid != origID {
				t.Fatalf("primary entry points at %d, want displaced row %d restored", rid, origID)
			}
			if old != nil {
				data, err := old.Read(tbl, rid, false)
				if err != nil || data == nil {
					t.Fatalf("pre-delete snapshot lost the row: data=%v err=%v", data, err)
				}
				if got := data.Col(1).Int(); got != 5 {
					t.Fatalf("pre-delete snapshot reads balance %d, want 5", got)
				}
				old.Commit()
			}

			// Once nothing can see the dead row, vacuum reclaims both the
			// restored entry and the slot.
			m.Vacuum()
			if _, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(1))); ok {
				t.Fatal("vacuum left the dead row's primary entry behind")
			}
			if got := tbl.RowCount(); got != 0 {
				t.Fatalf("RowCount after vacuum = %d, want 0", got)
			}
		})
	}
}

func TestHorizonTracksActiveSnapshots(t *testing.T) {
	m := NewManager(MVCC)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 1)
	before := m.Horizon()
	old := m.Begin(true)
	// Commit something to advance the clock.
	tx := m.Begin(false)
	rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0)))
	tx.Update(tbl, rid, row(0, 1))
	tx.Commit()
	if h := m.Horizon(); h != old.Snapshot() {
		t.Fatalf("horizon = %d, want pinned at %d", h, old.Snapshot())
	}
	old.Commit()
	if h := m.Horizon(); h <= before {
		t.Fatalf("horizon did not advance after release: %d", h)
	}
}
