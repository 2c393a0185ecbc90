package sqlval

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"testing"
)

// keyReader decodes fuzz bytes into values, padding with zeros when it runs
// out.
type keyReader struct{ b []byte }

func (r *keyReader) next(n int) []byte {
	if len(r.b) < n {
		r.b = append(r.b, make([]byte, n-len(r.b))...)
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// intEdges are the integers at the encoding's tag edges, at ±2^53 (where a
// float stops naming one integer) and at ±2^63.
var intEdges = []int64{math.MinInt64, -(1 << 53) - 1, -(1 << 53), -257, -256, -1, 0,
	0xDF, 0xE0, 0xFF, 0x100, 1 << 53, 1<<53 + 1, math.MaxInt64}

// floatEdges are ±0, ±Inf and values around the integers above.
var floatEdges = []float64{math.Inf(-1), -1 << 63, -(1 << 53), -5.5, -1, math.Copysign(0, -1), 0,
	0.5, 5, 5.5, 1 << 53, 1 << 63, math.MaxFloat64, math.Inf(1)}

// value reads one value of kind k, or NULL.
func (r *keyReader) value(k Kind) Value {
	sel := r.next(1)[0]
	if sel%8 == 0 {
		return Null()
	}
	switch k {
	case KindInt, KindTime:
		var x int64
		switch sel % 4 {
		case 0:
			x = intEdges[int(sel/8)%len(intEdges)]
		case 1:
			x = int64(r.next(1)[0])
		case 2:
			x = int64(int16(binary.BigEndian.Uint16(r.next(2))))
		default:
			x = int64(binary.BigEndian.Uint64(r.next(8)))
		}
		if k == KindTime {
			return NewTimeNanos(x)
		}
		return NewInt(x)
	case KindBool:
		return NewBool(sel&16 != 0)
	case KindFloat:
		f := floatEdges[int(sel/8)%len(floatEdges)]
		if sel%2 == 1 {
			f = math.Float64frombits(binary.BigEndian.Uint64(r.next(8)))
		}
		if math.IsNaN(f) {
			f = float64(int8(sel))
		}
		return NewFloat(f)
	default: // text: raw bytes (0x00 and 0xFF included) or a number's text
		switch sel % 4 {
		case 1:
			return NewString(strconv.FormatInt(r.value(KindInt).Int(), 10))
		case 2:
			return NewString(strconv.FormatFloat(r.value(KindFloat).Float(), 'g', -1, 64) + string(" 0a"[sel/4%3]))
		}
		return NewString(string(r.next(int(r.next(1)[0] % 6))))
	}
}

// keyKinds are the kinds a column can hold.
var keyKinds = []Kind{KindInt, KindBool, KindTime, KindFloat, KindString}

// sign maps a comparison result to -1, 0 or +1.
func sign(c int) int { return max(-1, min(1, c)) }

// FuzzIndexKey: for keys whose columns each hold one kind plus NULL, the
// byte order of AppendKey is the sign of CompareRows, a column prefix is a
// byte prefix, and a prefix padded with Top() follows every key it
// prefixes. A search value of any kind that KeyBound converts to a
// column's kind orders against every value of that kind exactly as the
// value itself does under Compare; one it does not convert widens the
// search, which then selects every row.
func FuzzIndexKey(f *testing.F) {
	for i := range intEdges {
		f.Add(uint16(i*37), []byte{byte(i * 8), 0}, []byte{byte(i*8 + 3), 0xFF, 0xFF, 0, 0, 0, 0, 0, 1}, []byte{byte(i), byte(i * 8)})
	}
	// One-column pairs: -0.0 and 0.0 in a DOUBLE column, "a\x00" and "a" in
	// a VARCHAR one.
	f.Add(uint16(12), []byte{1, 42}, []byte{1, 50}, []byte{4, 42})
	f.Add(uint16(16), []byte{1, 3, 2, 'a', 0}, []byte{1, 3, 1, 'a'}, []byte{5, 3, 2, 'a', 0})
	for sel := 0; sel < 64; sel++ {
		f.Add(uint16(sel<<2|sel%3), []byte{byte(sel), 'a', 0, 'b'}, []byte{byte(sel + 1), 2, 'a', 0xFF}, []byte{byte(sel % 9), byte(sel)})
	}
	f.Fuzz(func(t *testing.T, shape uint16, ab, bb, vb []byte) {
		ncols := 1 + int(shape%3)
		kinds := make([]Kind, ncols)
		for i := range kinds {
			kinds[i] = keyKinds[int(shape>>(2+3*i))%len(keyKinds)]
		}
		key := func(b []byte) []Value {
			r := &keyReader{b: b}
			k := make([]Value, int(r.next(1)[0])%(ncols+1))
			for i := range k {
				k[i] = r.value(kinds[i])
			}
			return k
		}
		x, y := key(ab), key(bb)
		ex, ey := AppendKey(nil, x...), AppendKey(nil, y...)
		if got, want := sign(bytes.Compare(ex, ey)), sign(CompareRows(x, y)); got != want {
			t.Fatalf("keys %v and %v: bytes order %d, CompareRows %d (%x, %x)", x, y, got, want, ex, ey)
		}
		for i := 0; i <= len(x); i++ {
			p := AppendKey(nil, x[:i]...)
			if !bytes.HasPrefix(ex, p) {
				t.Fatalf("%v: the encoding of its first %d columns is no prefix", x, i)
			}
			if bytes.Compare(ex, AppendKey(p, Top())) >= 0 {
				t.Fatalf("%v: not below its first %d columns padded with Top()", x, i)
			}
		}

		// A bound of any kind against the first column of both keys.
		r := &keyReader{b: vb}
		var v Value
		switch sel := r.next(1)[0] % 6; sel {
		case 0:
			v = Top()
		default:
			v = r.value(keyKinds[sel-1])
		}
		b, ok := KeyBound(v, kinds[0])
		if !ok {
			return
		}
		eb := AppendKey(nil, b)
		for _, k := range [][]Value{x, y} {
			if len(k) == 0 {
				continue
			}
			ek := AppendKey(nil, k[0])
			if got, want := sign(bytes.Compare(ek, eb)), Compare(k[0], v); got != want {
				t.Fatalf("%s column: %v against bound %v (%s, converted to %v): bytes order %d, Compare %d",
					kinds[0], k[0], v, v.Kind(), b, got, want)
			}
		}
	})
}

// TestKeyBound pins the conversions an INTEGER column's search values get:
// exact ones seek to an integer, the rest widen.
func TestKeyBound(t *testing.T) {
	cases := []struct {
		v    Value
		ok   bool
		want int64
	}{
		{NewFloat(5), true, 5}, {NewString("5"), true, 5}, {NewString(" 12.0 "), true, 12},
		{NewTimeNanos(7), true, 7}, {NewBool(true), true, 1},
		{NewFloat(5.5), false, 0}, {NewString("1a"), false, 0}, {NewFloat(1 << 53), false, 0},
		{NewFloat(math.Inf(1)), false, 0}, {NewFloat(math.NaN()), false, 0},
	}
	for _, c := range cases {
		if b, ok := KeyBound(c.v, KindInt); ok != c.ok || ok && b.Int() != c.want {
			t.Errorf("KeyBound(%v (%s), INTEGER) = %v, %v; want %d, %v", c.v, c.v.Kind(), b, ok, c.want, c.ok)
		}
	}
}
