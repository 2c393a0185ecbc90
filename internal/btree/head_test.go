package btree

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"benchpress/internal/sqlval"
)

// fuzzKey decodes a key from fuzz bytes and encodes it: each value is a
// kind selector followed by the payload that kind reads. Every kind the
// engine stores appears, plus Top(); strings are numeric or not by the
// selector.
func fuzzKey(b []byte) []byte {
	var k []sqlval.Value
	next := func(n int) []byte {
		if len(b) < n {
			b = append(b, make([]byte, n-len(b))...)
		}
		p := b[:n]
		b = b[n:]
		return p
	}
	for len(b) > 0 && len(k) < 6 {
		sel := next(1)[0]
		switch sel % 10 {
		case 0:
			k = append(k, sqlval.Null())
		case 1:
			k = append(k, sqlval.Top())
		case 2: // one byte: small ints and the 0xDF/0xE0 edge
			k = append(k, sqlval.NewInt(int64(next(1)[0])))
		case 3: // eight bytes: the full int64 range, ±2^63 included
			k = append(k, sqlval.NewInt(int64(binary.BigEndian.Uint64(next(8)))))
		case 4: // two bytes, signed: the -256/-257 edges
			k = append(k, sqlval.NewInt(int64(int16(binary.BigEndian.Uint16(next(2))))))
		case 5:
			k = append(k, sqlval.NewBool(next(1)[0]&1 == 1))
		case 6:
			k = append(k, sqlval.NewTimeNanos(int64(binary.BigEndian.Uint64(next(8)))))
		case 7:
			k = append(k, sqlval.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(next(8)))))
		case 8: // numeric text
			k = append(k, sqlval.NewString(strconv.Itoa(int(int8(next(1)[0])))))
		case 9:
			n := int(next(1)[0] % 4)
			k = append(k, sqlval.NewString(string(next(n))))
		}
	}
	return sqlval.AppendKey(nil, k...)
}

// cmpHead orders two keys by their heads alone; ok is false when the keys
// themselves must be compared.
func cmpHead(a, b uint64) (c int, ok bool) {
	if c := headOrder(a, b); c != headTie {
		return c, true
	}
	return tieOrder(a, b)
}

// checkHeads fails t when a head decision disagrees with bytes.Compare, or
// the headed prefix test with bytes.HasPrefix.
func checkHeads(t *testing.T, a, b []byte) {
	t.Helper()
	ha, hb := keyHead(a), keyHead(b)
	want := bytes.Compare(a, b)
	if c, ok := cmpHead(ha, hb); ok && c != want {
		t.Fatalf("cmpHead(%x, %x) = %d, bytes.Compare = %d (heads %#x %#x)", a, b, c, want, ha, hb)
	}
	if got := compare(ha, a, hb, b); got != want {
		t.Fatalf("compare(%x, %x) = %d, bytes.Compare = %d", a, b, got, want)
	}
	if got, want := hasPrefix(ha, a, hb, b), bytes.HasPrefix(a, b); got != want {
		t.Fatalf("hasPrefix(%x, %x) = %v, want %v", a, b, got, want)
	}
}

// FuzzKeyHead: for any two keys, encoded from values of every kind or taken
// as raw bytes, the headed comparison agrees with bytes.Compare and the
// headed prefix test with bytes.HasPrefix. (FuzzIndexKey, in sqlval, checks
// that byte order is the values' order.)
func FuzzKeyHead(f *testing.F) {
	edges := [][]byte{
		{2, 0xDF}, {2, 0xE0}, {2, 0xFF}, {2, 0},
		{3, 0x80, 0, 0, 0, 0, 0, 0, 0}, {3, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{3, 0, 0, 0, 0, 0, 0, 1, 0}, {3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		{4, 0xFF, 0x00}, {4, 0xFE, 0xFF}, {4, 0xFF, 0xFF},
		{0}, {1}, {5, 1}, {5, 0}, {6, 0x16, 0, 0, 0, 0, 0, 0, 0},
		{7, 0x3F, 0xF0, 0, 0, 0, 0, 0, 0}, {8, 5}, {9, 2, 'a', 'b'},
		{2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 2, 6, 2, 7, 2, 8},
		{2, 1, 9, 1, 'x'}, {2, 1, 7, 0x3F, 0xF0, 0, 0, 0, 0, 0, 0},
	}
	for _, a := range edges {
		for _, b := range edges {
			f.Add(a, b)
		}
		f.Add(a, append(append([]byte(nil), a...), 2, 3))
	}
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		for _, k := range [][2][]byte{{fuzzKey(ab), fuzzKey(bb)}, {ab, bb}} {
			a, b := k[0], k[1]
			checkHeads(t, a, b)
			checkHeads(t, b, a)
			checkHeads(t, a, a)
		}
	})
}

// TestKeyHeadDecides pins which comparisons the heads settle alone: keys
// of up to seven encoded bytes — an order_line key, a short name — never
// reach their bytes in the arena.
func TestKeyHeadDecides(t *testing.T) {
	str := func(s ...string) []byte {
		var k []byte
		for _, x := range s {
			k = sqlval.AppendKey(k, sqlval.NewString(x))
		}
		return k
	}
	cases := []struct {
		a, b []byte
		c    int
		ok   bool
	}{
		{intKey(1, 3, 3000, 7), intKey(1, 3, 3000, 8), -1, true},
		{intKey(5), intKey(5), 0, true},
		{intKey(5), intKey(5, 1), -1, true},
		{intKey(-1), intKey(0), -1, true},
		{intKey(-256), intKey(-257), 1, true},
		{intKey(0xDF), intKey(0xE0), -1, true},
		{intKey(math.MinInt64), intKey(math.MaxInt64), -1, true},
		{sqlval.AppendKey(nil, sqlval.NewInt(1), sqlval.Top()), intKey(1, 1<<40), 1, true},
		{sqlval.AppendKey(nil, sqlval.Null()), intKey(-1 << 62), -1, true},
		{sqlval.AppendKey(nil, sqlval.NewBool(true)), intKey(1), 0, true},
		{str("BAR"), str("BARB"), -1, true},
		{str("ab"), str("b"), -1, true},
		{str("OUGHT"), str("OUGHTA"), -1, true},
		// Ties the heads cannot break.
		{intKey(1<<60, 1), intKey(1<<60, 2), 0, false},
		{str("BARBARBAR"), str("BARBARABLE"), 0, false},
	}
	for _, tc := range cases {
		c, ok := cmpHead(keyHead(tc.a), keyHead(tc.b))
		if c != tc.c || ok != tc.ok {
			t.Errorf("cmpHead(%x, %x) = %d,%v; want %d,%v", tc.a, tc.b, c, ok, tc.c, tc.ok)
		}
		checkHeads(t, tc.a, tc.b)
	}
}

// modelKey draws a key from a small domain where each column holds one
// kind plus NULL, as a table's columns do: column 0 is the integer domain
// (Int, Bool and Time mixed, as Compare equates them) or NULL, column 1 text
// or NULL, with prefixes of one another and bytes 0x00 and 0xFF, column 2 a
// float or NULL, column 3 spans int64. Every column position but the first
// is optional, so keys of different lengths share prefixes, and the long
// texts and floats make heads tie.
func modelKey(rng *rand.Rand) []sqlval.Value {
	k := make([]sqlval.Value, 1+rng.Intn(4))
	switch n := int64(rng.Intn(8)); rng.Intn(6) {
	case 0:
		k[0] = sqlval.Null()
	case 1:
		k[0] = sqlval.NewBool(n%2 == 1)
	case 2:
		k[0] = sqlval.NewTimeNanos(n)
	default:
		k[0] = sqlval.NewInt(n)
	}
	texts := []string{"", "a", "a\x00", "a\x00b", "ab", "a\xff", "abcdefgh", "abcdefghi", "b"}
	floats := []float64{math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 0.5, 1e300, math.Inf(1)}
	edges := []int64{math.MinInt64, -257, -256, -1, 0, 0xDF, 0xE0, 1 << 40, math.MaxInt64}
	for i := 1; i < len(k); i++ {
		if rng.Intn(8) == 0 {
			continue // NULL
		}
		switch i {
		case 1:
			k[i] = sqlval.NewString(texts[rng.Intn(len(texts))])
		case 2:
			k[i] = sqlval.NewFloat(floats[rng.Intn(len(floats))])
		case 3:
			k[i] = sqlval.NewInt(edges[rng.Intn(len(edges))])
		}
	}
	return k
}

// TestTreeAgainstSortedModel runs seeded Insert/Delete/Get and range and
// prefix scans over encoded keys whose heads often tie, against a slice
// sorted by sqlval.CompareRows. A tree that took a head tie for equality
// would merge distinct keys here, and an encoding whose byte order is not
// CompareRows order would misplace them.
func TestTreeAgainstSortedModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		type entry struct {
			k []sqlval.Value
			v int64
		}
		var ref []entry
		find := func(k []sqlval.Value) (int, bool) {
			i := sort.Search(len(ref), func(i int) bool { return sqlval.CompareRows(ref[i].k, k) >= 0 })
			return i, i < len(ref) && sqlval.CompareRows(ref[i].k, k) == 0
		}
		collect := func(scan func(fn func([]byte, int64) bool)) []int64 {
			var got []int64
			scan(func(_ []byte, v int64) bool {
				got = append(got, v)
				return true
			})
			return got
		}
		equal := func(op string, got, want []int64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d entries, want %d", seed, op, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: entry %d = %d, want %d", seed, op, i, got[i], want[i])
				}
			}
		}
		for op := 0; op < 4000; op++ {
			k := modelKey(rng)
			ek := sqlval.AppendKey(nil, k...)
			i, found := find(k)
			switch r := rng.Intn(10); {
			case r < 5:
				v := int64(op)
				if fresh := tr.Insert(ek, v); fresh == found {
					t.Fatalf("seed %d: Insert(%v) fresh=%v, model has it=%v", seed, k, fresh, found)
				}
				if found {
					ref[i].v = v
				} else {
					ref = append(ref, entry{})
					copy(ref[i+1:], ref[i:])
					ref[i] = entry{k, v}
				}
			case r < 7:
				if got := tr.Delete(ek); got != found {
					t.Fatalf("seed %d: Delete(%v) = %v, model has it=%v", seed, k, got, found)
				}
				if found {
					ref = append(ref[:i], ref[i+1:]...)
				}
			case r < 8:
				v, ok := tr.Get(ek)
				if ok != found || (found && v != ref[i].v) {
					t.Fatalf("seed %d: Get(%v) = %d,%v; model %v", seed, k, v, ok, found)
				}
			default:
				lo, hi := k, modelKey(rng)
				if sqlval.CompareRows(lo, hi) > 0 {
					lo, hi = hi, lo
				}
				var asc, desc, pre []int64
				for _, e := range ref {
					if sqlval.CompareRows(e.k, lo) >= 0 && sqlval.CompareRows(e.k, hi) <= 0 {
						asc = append(asc, e.v)
					}
					if len(e.k) >= len(lo) && sqlval.CompareRows(e.k[:len(lo)], lo) == 0 {
						pre = append(pre, e.v)
					}
				}
				for j := len(asc) - 1; j >= 0; j-- {
					desc = append(desc, asc[j])
				}
				elo, ehi := sqlval.AppendKey(nil, lo...), sqlval.AppendKey(nil, hi...)
				equal("AscendRange", collect(func(fn func([]byte, int64) bool) { tr.AscendRange(elo, ehi, fn) }), asc)
				equal("DescendRange", collect(func(fn func([]byte, int64) bool) { tr.DescendRange(ehi, elo, fn) }), desc)
				equal("AscendPrefix", collect(func(fn func([]byte, int64) bool) { tr.AscendPrefix(elo, fn) }), pre)
			}
			if tr.Len() != len(ref) {
				t.Fatalf("seed %d: Len = %d, model %d", seed, tr.Len(), len(ref))
			}
		}
		var all []int64
		for _, e := range ref {
			all = append(all, e.v)
		}
		equal("full scan", collect(func(fn func([]byte, int64) bool) { tr.AscendRange(nil, nil, fn) }), all)
	}
}

// TestTreeGetNoAlloc: a point lookup computes its key's head on the stack
// and allocates nothing, and neither does encoding its key into a stack
// buffer.
func TestTreeGetNoAlloc(t *testing.T) {
	tr := New()
	for i := int64(0); i < 5000; i++ {
		tr.Insert(intKey(1, i%10, i, 7), i)
	}
	vals := []sqlval.Value{sqlval.NewInt(1), sqlval.NewInt(3), sqlval.NewInt(2503), sqlval.NewInt(7)}
	allocs := testing.AllocsPerRun(1000, func() {
		var buf [16]byte
		if v, ok := tr.Get(sqlval.AppendKey(buf[:0], vals...)); !ok || v != 2503 {
			t.Fatalf("Get = %d,%v", v, ok)
		}
	})
	t.Logf("Tree.Get: %.1f allocs/op", allocs)
	if allocs != 0 {
		t.Fatalf("Tree.Get allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkTreeGet probes, at random, a YCSB-shaped primary index (50 000
// single-integer keys) and a TPC-C order_line-shaped one (90 000 four-integer
// keys (w, d, o, n)).
func BenchmarkTreeGet(b *testing.B) {
	shapes := []struct {
		name string
		keys [][]byte
	}{
		{"ycsb", func() [][]byte {
			ks := make([][]byte, 50000)
			for i := range ks {
				ks[i] = intKey(int64(i))
			}
			return ks
		}()},
		{"order_line", func() [][]byte {
			var ks [][]byte
			for d := int64(1); d <= 10; d++ {
				for o := int64(1); o <= 900; o++ {
					for n := int64(1); n <= 10; n++ {
						ks = append(ks, intKey(1, d, o, n))
					}
				}
			}
			return ks
		}()},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			tr := New()
			for i, k := range s.keys {
				tr.Insert(k, int64(i))
			}
			rng := rand.New(rand.NewSource(1))
			probes := make([][]byte, 4096)
			for i := range probes {
				probes[i] = s.keys[rng.Intn(len(s.keys))]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := tr.Get(probes[i&(len(probes)-1)]); !ok {
					b.Fatal("probe missed")
				}
			}
		})
	}
}
