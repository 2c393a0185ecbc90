package storage

import (
	"testing"
	"testing/quick"

	"benchpress/internal/sqldb/catalog"
	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/sqlval"
)

func newTable(t *testing.T, pk bool) *Table {
	t.Helper()
	cat := catalog.New()
	cols := []catalog.Column{
		{Name: "id", Kind: sqlval.KindInt, NotNull: true},
		{Name: "grp", Kind: sqlval.KindInt},
		{Name: "name", Kind: sqlval.KindString},
	}
	var pkCols []string
	if pk {
		pkCols = []string{"id"}
	}
	meta, err := cat.CreateTable("t", cols, pkCols)
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(meta)
}

func mkRow(id, grp int64, name string) heap.Record {
	return heap.EncodeRecord([]sqlval.Value{sqlval.NewInt(id), sqlval.NewInt(grp), sqlval.NewString(name)})
}

func commitVersion(r *Row, ts uint64) {
	r.Latest().SetBegin(ts)
}

func TestInsertAndPrimaryLookup(t *testing.T) {
	tbl := newTable(t, true)
	id, r, _, err := tbl.Insert(7, mkRow(1, 10, "a"))
	if err != nil {
		t.Fatal(err)
	}
	commitVersion(r, 5)
	got, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(1)))
	if !ok || got != id {
		t.Fatalf("lookup = %d,%v", got, ok)
	}
	if _, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(2))); ok {
		t.Fatal("phantom lookup")
	}
}

func TestDuplicatePendingInsert(t *testing.T) {
	tbl := newTable(t, true)
	if _, _, _, err := tbl.Insert(1, mkRow(1, 0, "x")); err != nil {
		t.Fatal(err)
	}
	// Same PK while the first is still uncommitted: duplicate.
	if _, _, _, err := tbl.Insert(2, mkRow(1, 0, "y")); err == nil {
		t.Fatal("pending duplicate accepted")
	}
}

func TestSecondaryIndexBackfillAndScan(t *testing.T) {
	tbl := newTable(t, true)
	for i := int64(0); i < 20; i++ {
		_, r, _, err := tbl.Insert(1, mkRow(i, i%4, "n"))
		if err != nil {
			t.Fatal(err)
		}
		commitVersion(r, 2)
	}
	idx := &catalog.Index{Name: "t_grp", Table: "t", Columns: []int{1}}
	tbl.Meta.Indexes = append(tbl.Meta.Indexes, idx)
	tbl.AddIndex(idx)

	var ids []RowID
	prefix := sqlval.AppendKey(nil, sqlval.NewInt(2))
	hi := sqlval.AppendKey(nil, sqlval.NewInt(2), sqlval.Top())
	tbl.ScanSecondaryRange(0, prefix, hi, false, func(e IndexEntry) bool {
		ids = append(ids, e.ID)
		return true
	})
	if len(ids) != 5 {
		t.Fatalf("prefix scan found %d rows, want 5", len(ids))
	}
}

func TestSecondaryRangeScan(t *testing.T) {
	tbl := newTable(t, true)
	idx := &catalog.Index{Name: "t_grp", Table: "t", Columns: []int{1}}
	tbl.Meta.Indexes = append(tbl.Meta.Indexes, idx)
	tbl.AddIndex(idx)
	for i := int64(0); i < 30; i++ {
		_, r, _, err := tbl.Insert(1, mkRow(i, i, "n"))
		if err != nil {
			t.Fatal(err)
		}
		commitVersion(r, 2)
	}
	var n int
	tbl.ScanSecondaryRange(0, sqlval.AppendKey(nil, sqlval.NewInt(10)), sqlval.AppendKey(nil, sqlval.NewInt(19), sqlval.Top()), false, func(e IndexEntry) bool {
		n++
		return true
	})
	if n != 10 {
		t.Fatalf("range scan found %d, want 10", n)
	}
	n = 0
	tbl.ScanSecondaryRange(0, sqlval.AppendKey(nil, sqlval.NewInt(25)), nil, false, func(e IndexEntry) bool {
		n++
		return true
	})
	if n != 5 {
		t.Fatalf("open-ended range found %d, want 5", n)
	}
	// Descending with an upper bound.
	var got []RowID
	tbl.ScanSecondaryRange(0, nil, sqlval.AppendKey(nil, sqlval.NewInt(5), sqlval.Top()), true, func(e IndexEntry) bool {
		got = append(got, e.ID)
		return true
	})
	if len(got) != 6 {
		t.Fatalf("descending bounded scan found %d, want 6", len(got))
	}
}

func TestPrimaryRangeScan(t *testing.T) {
	tbl := newTable(t, true)
	for i := int64(0); i < 10; i++ {
		_, r, _, _ := tbl.Insert(1, mkRow(i, 0, "x"))
		commitVersion(r, 2)
	}
	var asc, desc []RowID
	tbl.ScanPrimaryRange(sqlval.AppendKey(nil, sqlval.NewInt(3)), sqlval.AppendKey(nil, sqlval.NewInt(6)), false, func(e IndexEntry) bool {
		asc = append(asc, e.ID)
		return true
	})
	tbl.ScanPrimaryRange(sqlval.AppendKey(nil, sqlval.NewInt(3)), sqlval.AppendKey(nil, sqlval.NewInt(6)), true, func(e IndexEntry) bool {
		desc = append(desc, e.ID)
		return true
	})
	if len(asc) != 4 || len(desc) != 4 {
		t.Fatalf("asc=%d desc=%d, want 4 each", len(asc), len(desc))
	}
	for i := range desc {
		if desc[i] != asc[len(asc)-1-i] {
			t.Fatal("desc is not the reverse of asc")
		}
	}
}

func TestVisibilitySnapshot(t *testing.T) {
	r := &Row{}
	// v1 committed at ts=5, superseded at ts=10 by v2.
	v1 := NewVersion(mkRow(1, 0, "v1"), 5, 10, nil)
	v2 := NewVersion(mkRow(1, 0, "v2"), 10, Infinity, v1)
	r.SetLatest(v2)

	see := func(snap uint64) string {
		v := View{TxnID: 99, SnapTS: snap, Snapshot: true}.Visible(r)
		if v == nil {
			return ""
		}
		return v.Col(2).Str()
	}
	if got := see(4); got != "" {
		t.Fatalf("snap=4 sees %q, want nothing", got)
	}
	if got := see(5); got != "v1" {
		t.Fatalf("snap=5 sees %q, want v1", got)
	}
	if got := see(9); got != "v1" {
		t.Fatalf("snap=9 sees %q, want v1", got)
	}
	if got := see(10); got != "v2" {
		t.Fatalf("snap=10 sees %q, want v2", got)
	}
}

func TestVisibilityUncommitted(t *testing.T) {
	r := &Row{}
	v1 := NewVersion(mkRow(1, 0, "old"), 5, TxnMark|7, nil) // superseded by txn 7
	v2 := NewVersion(mkRow(1, 0, "new"), TxnMark|7, Infinity, v1)
	r.SetLatest(v2)

	// Txn 7 sees its own new version in both modes.
	for _, snapshot := range []bool{true, false} {
		v := View{TxnID: 7, SnapTS: 5, Snapshot: snapshot}.Visible(r)
		if v == nil || v.Col(2).Str() != "new" {
			t.Fatalf("snapshot=%v: writer does not see own write", snapshot)
		}
	}
	// Txn 9 sees the old committed version in both modes.
	for _, snapshot := range []bool{true, false} {
		v := View{TxnID: 9, SnapTS: 5, Snapshot: snapshot}.Visible(r)
		if v == nil || v.Col(2).Str() != "old" {
			t.Fatalf("snapshot=%v: reader does not see committed version", snapshot)
		}
	}
}

func TestVisibilityDeletePendingOwn(t *testing.T) {
	r := &Row{}
	v1 := NewVersion(mkRow(1, 0, "x"), 5, TxnMark|DeleteFlag|3, nil)
	r.SetLatest(v1)
	// The deleting transaction must not see the row.
	if v := (View{TxnID: 3, SnapTS: 6, Snapshot: true}).Visible(r); v != nil {
		t.Fatal("deleter sees its own deleted row (snapshot)")
	}
	if v := (View{TxnID: 3, SnapTS: 6, Snapshot: false}).Visible(r); v != nil {
		t.Fatal("deleter sees its own deleted row (latest)")
	}
}

func TestTruncate(t *testing.T) {
	tbl := newTable(t, true)
	for i := int64(0); i < 5; i++ {
		_, r, _, _ := tbl.Insert(1, mkRow(i, 0, "x"))
		commitVersion(r, 2)
	}
	tbl.Truncate()
	if tbl.RowCount() != 0 {
		t.Fatalf("RowCount = %d after truncate", tbl.RowCount())
	}
	if _, ok := tbl.PrimaryLookup(sqlval.AppendKey(nil, sqlval.NewInt(0))); ok {
		t.Fatal("index survived truncate")
	}
	// Table must be reusable.
	if _, _, _, err := tbl.Insert(1, mkRow(0, 0, "y")); err != nil {
		t.Fatal(err)
	}
}

func TestAutoInc(t *testing.T) {
	tbl := newTable(t, true)
	if tbl.NextAutoInc() != 1 || tbl.NextAutoInc() != 2 {
		t.Fatal("auto-inc sequence")
	}
	tbl.BumpAutoInc(100)
	if tbl.NextAutoInc() != 101 {
		t.Fatal("bump")
	}
	tbl.BumpAutoInc(50) // lower bump must not regress
	if tbl.NextAutoInc() != 102 {
		t.Fatal("bump regressed")
	}
}

// Property: after inserting n distinct keys and committing them, the primary
// scan returns exactly the sorted keys.
func TestPrimaryScanProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		tbl := newTable(t, true)
		uniq := map[int64]bool{}
		for _, k := range raw {
			key := int64(k)
			if uniq[key] {
				continue
			}
			uniq[key] = true
			_, r, _, err := tbl.Insert(1, mkRow(key, 0, "p"))
			if err != nil {
				return false
			}
			commitVersion(r, 2)
		}
		prev := int64(-1 << 62)
		n := 0
		ok := true
		tbl.ScanPrimaryRange(nil, nil, false, func(e IndexEntry) bool {
			r, _ := tbl.Row(e.ID)
			key := r.Latest().Col(0).Int()
			if key <= prev {
				ok = false
				return false
			}
			prev = key
			n++
			return true
		})
		return ok && n == len(uniq)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
