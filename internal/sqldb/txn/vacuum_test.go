package txn

import (
	"testing"

	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqlval"
)

// TestVacuumVisitsOnlyWrittenRows pins the cost model of the
// write-set-driven vacuum: ten committed updates on a 100k-row table make
// one pass visit at most those ten rows (a sweep of one segment in 32 would
// visit 3 125 of them), prune their chains, and empty the backlog. The
// load's inserts leave no reclaimable work and are never visited.
func TestVacuumVisitsOnlyWrittenRows(t *testing.T) {
	const rows, updates = 100_000, 10
	m := NewManager(MVCC)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, rows)
	if n := m.VacuumBacklog(); n != 0 {
		t.Fatalf("the load left %d backlog entries, want 0", n)
	}
	for i := int64(0); i < updates; i++ {
		tx := m.Begin(false)
		rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(i*997)))
		if err := tx.Update(tbl, rid, row(i*997, 1)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.VacuumBacklog(); n != updates {
		t.Fatalf("backlog = %d, want %d", n, updates)
	}
	if n := m.Vacuum(); n != 0 {
		t.Fatalf("vacuum retired %d rows, want 0", n)
	}
	if v := m.VacuumVisited(); v > updates {
		t.Errorf("one pass visited %d rows, want <= %d", v, updates)
	}
	if p := m.VacuumPruned(); p != updates {
		t.Errorf("pruned %d chains, want %d", p, updates)
	}
	if n := m.VacuumBacklog(); n != 0 {
		t.Errorf("backlog after the pass = %d, want 0", n)
	}
	if dead, prunable := tbl.Unreclaimed(m.Horizon()); dead != 0 || prunable != 0 {
		t.Errorf("a full sweep finds %d dead rows and %d prunable tails", dead, prunable)
	}
}

// TestVacuumWaitsForHorizon checks that a pinned snapshot holds back
// exactly the backlog entries committed after it: they stay queued, and a
// pass after the snapshot ends takes them.
func TestVacuumWaitsForHorizon(t *testing.T) {
	m := NewManager(MVCC)
	tbl := newAccountsTable(t)
	seed(t, m, tbl, 4)
	update := func(id, bal int64) {
		t.Helper()
		tx := m.Begin(false)
		rid, _ := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(id)))
		if err := tx.Update(tbl, rid, row(id, bal)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	update(0, 1)
	pin := m.Begin(true)
	update(1, 1)
	update(2, 1)
	m.Vacuum()
	if n := m.VacuumBacklog(); n != 2 {
		t.Fatalf("backlog with a pinned snapshot = %d, want the 2 later commits", n)
	}
	if v := m.VacuumVisited(); v != 1 {
		t.Fatalf("visited %d rows under the pin, want 1", v)
	}
	if bal, ok := readBalanceAt(pin, tbl, 1); !ok || bal != 100 {
		t.Fatalf("pinned snapshot reads %d, %v; want the pre-update 100", bal, ok)
	}
	if err := pin.Commit(); err != nil {
		t.Fatal(err)
	}
	m.Vacuum()
	if n := m.VacuumBacklog(); n != 0 {
		t.Fatalf("backlog after the pin ended = %d, want 0", n)
	}
	if dead, prunable := tbl.Unreclaimed(m.Horizon()); dead != 0 || prunable != 0 {
		t.Errorf("a full sweep finds %d dead rows and %d prunable tails", dead, prunable)
	}
}

// readBalanceAt reads an account's balance inside an open transaction.
func readBalanceAt(tx *Txn, tbl *storage.Table, id int64) (int64, bool) {
	rid, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(id)))
	if !ok {
		return 0, false
	}
	data, err := tx.Read(tbl, rid, false)
	if err != nil || data == nil {
		return 0, false
	}
	return data.Col(1).Int(), true
}
