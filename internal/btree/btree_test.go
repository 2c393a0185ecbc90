package btree

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"benchpress/internal/sqlval"
)

// intKey encodes a composite key of integers.
func intKey(vs ...int64) []byte {
	var k []byte
	for _, v := range vs {
		k = sqlval.AppendKey(k, sqlval.NewInt(v))
	}
	return k
}

func TestInsertGet(t *testing.T) {
	tr := New()
	for i := int64(0); i < 1000; i++ {
		if !tr.Insert(intKey(i), i*10) {
			t.Fatalf("Insert(%d) reported replace on fresh key", i)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len() = %d, want 1000", tr.Len())
	}
	for i := int64(0); i < 1000; i++ {
		v, ok := tr.Get(intKey(i))
		if !ok || v != i*10 {
			t.Fatalf("Get(%d) = %d,%v; want %d,true", i, v, ok, i*10)
		}
	}
	if _, ok := tr.Get(intKey(1000)); ok {
		t.Fatal("Get(1000) found a missing key")
	}
}

func TestInsertReplace(t *testing.T) {
	tr := New()
	tr.Insert(intKey(7), 1)
	if tr.Insert(intKey(7), 2) {
		t.Fatal("second Insert of same key reported fresh insert")
	}
	if v, _ := tr.Get(intKey(7)); v != 2 {
		t.Fatalf("Get = %d, want 2 after replace", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := int64(0); i < 500; i++ {
		tr.Insert(intKey(i), i)
	}
	for i := int64(0); i < 500; i += 2 {
		if !tr.Delete(intKey(i)) {
			t.Fatalf("Delete(%d) reported missing", i)
		}
	}
	if tr.Delete(intKey(0)) {
		t.Fatal("Delete of already-deleted key reported present")
	}
	if tr.Len() != 250 {
		t.Fatalf("Len = %d, want 250", tr.Len())
	}
	for i := int64(0); i < 500; i++ {
		_, ok := tr.Get(intKey(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
		}
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(intKey(i), i)
	}
	var got []int64
	tr.AscendRange(intKey(10), intKey(20), func(k []byte, v int64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("AscendRange[10,20] = %v", got)
	}
	got = got[:0]
	tr.AscendRange(nil, intKey(3), func(k []byte, v int64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 4 {
		t.Fatalf("AscendRange[nil,3] = %v", got)
	}
	// Early stop.
	n := 0
	tr.AscendRange(nil, nil, func(k []byte, v int64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
}

func TestDescendRange(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(intKey(i), i)
	}
	var got []int64
	tr.DescendRange(intKey(20), intKey(10), func(k []byte, v int64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 11 || got[0] != 20 || got[10] != 10 {
		t.Fatalf("DescendRange[20,10] = %v", got)
	}
	got = got[:0]
	tr.DescendRange(nil, nil, func(k []byte, v int64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 100 || got[0] != 99 || got[99] != 0 {
		t.Fatalf("full descend wrong: len=%d first=%d last=%d", len(got), got[0], got[len(got)-1])
	}
	// A from-key that is between entries should start at the previous entry.
	tr2 := New()
	for i := int64(0); i < 100; i += 10 {
		tr2.Insert(intKey(i), i)
	}
	got = got[:0]
	tr2.DescendRange(intKey(35), nil, func(k []byte, v int64) bool {
		got = append(got, v)
		return true
	})
	if len(got) == 0 || got[0] != 30 {
		t.Fatalf("DescendRange from between-keys start = %v, want first 30", got)
	}
}

func TestAscendPrefix(t *testing.T) {
	tr := New()
	// Non-unique index simulation: (user, rowid) -> rowid.
	for user := int64(0); user < 10; user++ {
		for r := int64(0); r < 5; r++ {
			rowid := user*100 + r
			tr.Insert(intKey(user, rowid), rowid)
		}
	}
	var got []int64
	tr.AscendPrefix(intKey(3), func(k []byte, v int64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 5 {
		t.Fatalf("AscendPrefix(3) returned %d entries, want 5", len(got))
	}
	for i, v := range got {
		if v != 300+int64(i) {
			t.Fatalf("AscendPrefix(3)[%d] = %d", i, v)
		}
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := New()
	ref := map[int64]int64{}
	for op := 0; op < 20000; op++ {
		k := int64(rng.Intn(2000))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Int63()
			tr.Insert(intKey(k), v)
			ref[k] = v
		case 2:
			delete(ref, k)
			tr.Delete(intKey(k))
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	var keys []int64
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	i := 0
	tr.AscendRange(nil, nil, func(k []byte, v int64) bool {
		if i >= len(keys) {
			t.Fatalf("scan returned extra key %v", k)
		}
		if !bytes.Equal(k, intKey(keys[i])) || v != ref[keys[i]] {
			t.Fatalf("scan[%d] = (%x,%d), want (%d,%d)", i, k, v, keys[i], ref[keys[i]])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("scan returned %d keys, want %d", i, len(keys))
	}
}

// Property: for any set of keys, an ascending full scan yields them sorted
// and descending yields the reverse.
func TestScanOrderProperty(t *testing.T) {
	prop := func(raw []int64) bool {
		tr := New()
		uniq := map[int64]bool{}
		for _, k := range raw {
			uniq[k] = true
			tr.Insert(intKey(k), k)
		}
		var asc []int64
		tr.AscendRange(nil, nil, func(k []byte, v int64) bool {
			asc = append(asc, v)
			return true
		})
		if len(asc) != len(uniq) {
			return false
		}
		for i := 1; i < len(asc); i++ {
			if asc[i-1] >= asc[i] {
				return false
			}
		}
		var desc []int64
		tr.DescendRange(nil, nil, func(k []byte, v int64) bool {
			desc = append(desc, v)
			return true
		})
		if len(desc) != len(asc) {
			return false
		}
		for i := range desc {
			if desc[i] != asc[len(asc)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: composite keys order lexicographically by column. Each entry's
// payload ranks its (a, b) pair, so the payloads of a scan must rise.
func TestCompositeKeyOrderProperty(t *testing.T) {
	prop := func(pairs []struct{ A, B int8 }) bool {
		tr := New()
		type pk struct{ a, b int8 }
		uniq := map[pk]bool{}
		for _, p := range pairs {
			uniq[pk{p.A, p.B}] = true
			tr.Insert(intKey(int64(p.A), int64(p.B)), (int64(p.A)+128)<<8|(int64(p.B)+128))
		}
		prev := int64(-1)
		ok := true
		n := 0
		tr.AscendRange(nil, nil, func(_ []byte, v int64) bool {
			n++
			if v <= prev {
				ok = false
				return false
			}
			prev = v
			return true
		})
		return ok && n == len(uniq)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(intKey(int64(i)), int64(i))
	}
}
