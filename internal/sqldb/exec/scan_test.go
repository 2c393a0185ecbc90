package exec

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"benchpress/internal/sqldb/catalog"
	"benchpress/internal/sqldb/storage"
	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/sqlval"
)

// rangeTable builds a table (id PK, grp) with a secondary index on grp and
// n committed rows; grp = id / groupSize, so each group is a run of ties on
// the indexed column that chunk edges fall inside.
func rangeTable(t *testing.T, n, groupSize int) *storage.Table {
	t.Helper()
	cat := catalog.New()
	meta, err := cat.CreateTable("r", []catalog.Column{
		{Name: "id", Kind: sqlval.KindInt, NotNull: true},
		{Name: "grp", Kind: sqlval.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddIndex("r", "r_grp", []string{"grp"}, false); err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable(meta)
	for i := 0; i < n; i++ {
		_, row, _, err := tbl.Insert(1, heap.EncodeRecord([]sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewInt(int64(i / groupSize))}))
		if err != nil {
			t.Fatal(err)
		}
		row.Latest().SetBegin(1)
	}
	return tbl
}

// streamed collects everything scanRange hands out for one level.
func streamed(lv *scanLevel, from, to []byte) []storage.IndexEntry {
	var sc levelScratch
	var out []storage.IndexEntry
	scanRange(lv, &sc, from, to, func(e storage.IndexEntry, _ verifyKind, _ *storage.Row) bool {
		out = append(out, e)
		return true
	})
	return out
}

func oneShot(lv *scanLevel, from, to []byte) []storage.IndexEntry {
	if lv.access.kind == accessPrimary {
		return lv.tbl.AppendPrimaryRange(nil, from, to, nil, lv.access.desc, 0)
	}
	return lv.tbl.AppendSecondaryRange(nil, lv.access.ord, from, to, nil, lv.access.desc, 0)
}

func sameEntries(t *testing.T, what string, got, want []storage.IndexEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: streamed %d entries, one-shot %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || !bytes.Equal(got[i].Key, want[i].Key) {
			t.Fatalf("%s: entry %d streamed %v/%d, one-shot %v/%d", what, i, got[i].Key, got[i].ID, want[i].Key, want[i].ID)
		}
	}
}

// TestScanRangeChunksMatchOneShot checks that streaming a range in growing
// chunks hands out exactly the entries of one materialization, in both
// directions, for open, prefix and Top-padded bounds, over range sizes that
// end on, just before and just after chunk edges (32, 96, 224, ...), and
// through runs of ties on a secondary index's column that straddle them.
func TestScanRangeChunksMatchOneShot(t *testing.T) {
	const n = 5000
	tbl := rangeTable(t, n, 7)
	top := sqlval.AppendKey(nil, sqlval.Top())
	int64s := func(vs ...int64) []byte {
		var out []byte
		for _, v := range vs {
			out = sqlval.AppendKey(out, sqlval.NewInt(v))
		}
		return out
	}
	for _, desc := range []bool{false, true} {
		prim := &scanLevel{tbl: tbl, access: accessPath{kind: accessPrimary, desc: desc}}
		sec := &scanLevel{tbl: tbl, access: accessPath{kind: accessSecondary, ord: 0, desc: desc}}
		cases := []struct {
			name     string
			lv       *scanLevel
			from, to []byte
		}{
			{"primary/open", prim, nil, nil},
			{"secondary/open", sec, nil, nil},
			{"secondary/one-group", sec, int64s(3), append(int64s(3), top...)},
			{"secondary/top-bound", sec, nil, append(int64s(40), top...)},
			{"secondary/prefix-from", sec, int64s(600), nil},
		}
		// Primary ranges whose sizes sit on and around the chunk edges.
		for _, size := range []int64{1, 31, 32, 33, 95, 96, 97, 224, 225, 2015, 2016, 2017} {
			cases = append(cases, struct {
				name     string
				lv       *scanLevel
				from, to []byte
			}{"primary/size", prim, int64s(100), int64s(100 + size - 1)})
		}
		// Secondary ranges ending inside a run of ties at a chunk edge.
		for _, groups := range []int64{4, 5, 13, 14, 32, 33} {
			cases = append(cases, struct {
				name     string
				lv       *scanLevel
				from, to []byte
			}{"secondary/ties", sec, int64s(10), append(int64s(10+groups), top...)})
		}
		for _, c := range cases {
			want := oneShot(c.lv, c.from, c.to)
			sameEntries(t, c.name, streamed(c.lv, c.from, c.to), want)
		}
	}
}

// TestLimitMaterializesFirstChunkOnly: a scan that stops at its first row —
// Delivery's ORDER BY ... LIMIT 1 — materializes one first chunk of a
// 10k-entry range, not the range.
func TestLimitMaterializesFirstChunkOnly(t *testing.T) {
	tbl := rangeTable(t, 10_000, 10_000)
	for _, lv := range []*scanLevel{
		{tbl: tbl, access: accessPath{kind: accessPrimary}},
		{tbl: tbl, access: accessPath{kind: accessSecondary, desc: true}},
	} {
		var sc levelScratch
		materialized, seen := 0, 0
		scanRange(lv, &sc, nil, nil, func(e storage.IndexEntry, _ verifyKind, _ *storage.Row) bool {
			if seen == 0 {
				materialized = len(sc.entries)
			}
			seen++
			return false
		})
		if seen != 1 || materialized != firstRangeChunk {
			t.Errorf("access %d: handed out %d entries from a chunk of %d, want 1 from %d",
				lv.access.kind, seen, materialized, firstRangeChunk)
		}
		if len(sc.entries) != 0 {
			t.Errorf("access %d: %d entries left in the scratch after the scan", lv.access.kind, len(sc.entries))
		}
	}
}

// TestScanRangeUnderChurn streams ranges while other goroutines insert and
// roll back rows interleaved with a stable set. Every scan must hand out
// strictly ordered, unique keys (resuming after the last key never repeats
// or reorders one), and must include every stable row, which is in the
// index for the whole scan. Run it under -race.
func TestScanRangeUnderChurn(t *testing.T) {
	const stable = 3000 // even ids are stable; odd ids churn
	cat := catalog.New()
	meta, err := cat.CreateTable("c", []catalog.Column{
		{Name: "id", Kind: sqlval.KindInt, NotNull: true},
		{Name: "grp", Kind: sqlval.KindInt},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddIndex("c", "c_grp", []string{"grp"}, false); err != nil {
		t.Fatal(err)
	}
	tbl := storage.NewTable(meta)
	for i := 0; i < stable; i++ {
		_, row, _, err := tbl.Insert(1, heap.EncodeRecord([]sqlval.Value{sqlval.NewInt(int64(2 * i)), sqlval.NewInt(int64(i % 3))}))
		if err != nil {
			t.Fatal(err)
		}
		row.Latest().SetBegin(1)
	}

	var stop atomic.Bool
	var churn sync.WaitGroup
	for w := 0; w < 2; w++ {
		churn.Add(1)
		src := rand.Int63()
		go func(w int) {
			defer churn.Done()
			r := rand.New(rand.NewSource(src))
			for !stop.Load() {
				id := int64(2*r.Intn(stable) + 1)
				data := heap.EncodeRecord([]sqlval.Value{sqlval.NewInt(id), sqlval.NewInt(int64(r.Intn(3)))})
				rid, row, disp, err := tbl.Insert(uint64(100+w), data)
				if err != nil {
					continue // the other worker holds this key right now
				}
				tbl.RollbackInsert(rid, row.Latest(), disp)
			}
		}(w)
	}

	iters := 40
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		desc := i%2 == 1
		for _, lv := range []*scanLevel{
			{tbl: tbl, access: accessPath{kind: accessPrimary, desc: desc}},
			{tbl: tbl, access: accessPath{kind: accessSecondary, desc: desc}},
		} {
			got := streamed(lv, nil, nil)
			stableSeen := 0
			for j, e := range got {
				if j > 0 {
					c := bytes.Compare(got[j-1].Key, e.Key)
					if (!desc && c >= 0) || (desc && c <= 0) {
						t.Fatalf("access %d desc=%v: key %v follows %v", lv.access.kind, desc, e.Key, got[j-1].Key)
					}
				}
				if row, ok := tbl.Row(e.ID); ok && row.Latest().Col(0).Int()%2 == 0 {
					stableSeen++
				}
			}
			if stableSeen != stable {
				t.Fatalf("access %d desc=%v: saw %d stable rows, want %d", lv.access.kind, desc, stableSeen, stable)
			}
		}
	}
	stop.Store(true)
	churn.Wait()
}
