package btree

import (
	"math/bits"

	"benchpress/internal/sqlval"
)

// A head is a key's first bytes in an order-preserving encoding, packed in
// one word so that a binary search compares contiguous integers and touches
// a key's []sqlval.Value only when the heads cannot decide (the "poor man's
// normalized key" of Graefe and Larson, "B-tree indexes and CPU caches").
//
// Layout: bits 8..63 hold up to headBytes encoded bytes, first byte in the
// top bits and unused bytes zero; bits 0..2 hold how many bytes were
// encoded; bit 3 (headWhole) is set when those bytes encode every column.
//
// Encoding, one value after another (each value's bytes are self-delimiting,
// so byte order over the concatenation is column-by-column order):
//
//	NULL                      0x01
//	Top()                     0xFF
//	Int, Bool, Time  x < 0    tag 0x10-n, then x's low n bytes big-endian,
//	                          n = 1..8 the fewest with x >= -2^(8n)
//	                 x < 0xE0 the single byte 0x10+x
//	                 larger   tag 0xEF+n, then x's n bytes big-endian
//
// sqlval.Compare orders Int, Bool and Time as one int64 domain, which is
// what the integer encoding preserves. Encoding stops at the first Float or
// String column: Compare orders a string against a number by parsing it
// and a float against an integer by widening, so no byte order agrees with
// it there. A value that does not fit in the remaining bytes is cut short;
// its leading bytes still order correctly.
const (
	headBytes = 7
	headLen   = 0x7 // mask of the encoded-byte count
	headWhole = 0x8 // the encoded bytes cover every column
)

// headWriter accumulates a head one byte at a time.
type headWriter struct {
	h uint64
	n uint
}

// put appends b, reporting false when the head is full.
func (w *headWriter) put(b byte) bool {
	if w.n == headBytes {
		return false
	}
	w.h |= uint64(b) << (56 - 8*w.n)
	w.n++
	return true
}

// putInt appends the encoding of one integer-domain value, reporting false
// when it did not fit whole.
func (w *headWriter) putInt(x int64) bool {
	var n int
	var tag byte
	switch {
	case x < 0:
		n = max(1, (bits.Len64(uint64(^x))+7)/8)
		tag = 0x10 - byte(n)
	case x < 0xE0:
		return w.put(0x10 + byte(x))
	default:
		n = (bits.Len64(uint64(x)) + 7) / 8
		tag = 0xEF + byte(n)
	}
	if !w.put(tag) {
		return false
	}
	for i := n - 1; i >= 0; i-- {
		if !w.put(byte(uint64(x) >> (8 * i))) {
			return false
		}
	}
	return true
}

// keyHead returns key's head.
func keyHead(key Key) uint64 {
	var w headWriter
	for i := range key {
		var ok bool
		switch v := &key[i]; v.Kind() {
		case sqlval.KindNull:
			ok = w.put(0x01)
		case sqlval.KindTop:
			ok = w.put(0xFF)
		case sqlval.KindInt, sqlval.KindBool, sqlval.KindTime:
			ok = w.putInt(v.Int())
		}
		if !ok {
			return w.h | uint64(w.n)
		}
	}
	return w.h | uint64(w.n) | headWhole
}

// The heads decide an order on their own in two cases:
//   - the first byte where they differ lies inside both encoded lengths;
//   - the common bytes are equal and one head is whole and ends no later
//     than the other: it encodes a column prefix of the other key, so the
//     keys are equal when both are whole and equally long, and otherwise the
//     whole one is shorter and first.
//
// Everything else (a tie on bytes where a Float or String column, or a value
// cut short, follows) goes to sqlval.CompareRows.

// headTie is headOrder's answer when the heads' common bytes are equal.
const headTie = 2

// headOrder compares the bytes two heads have in common: -1 or +1 when they
// differ, headTie when they are equal. It is small enough to inline into
// the binary searches' loop bodies.
func headOrder(a, b uint64) int {
	mask := ^uint64(0) << (64 - 8*min(a&headLen, b&headLen))
	x, y := a&mask, b&mask
	if x < y {
		return -1
	}
	if x > y {
		return 1
	}
	return headTie
}

// tieOrder settles a pair of heads whose common bytes are equal. ok is false
// when the heads cannot decide.
func tieOrder(a, b uint64) (c int, ok bool) {
	la, lb := a&headLen, b&headLen
	aw, bw := a&headWhole != 0, b&headWhole != 0
	switch {
	case aw && bw && la == lb:
		return 0, true
	case aw && la <= lb:
		return -1, true
	case bw && lb <= la:
		return 1, true
	}
	return 0, false
}

// compare orders two keys given their heads, calling sqlval.CompareRows only
// when the heads cannot decide.
func compare(ha uint64, a Key, hb uint64, b Key) int {
	if c := headOrder(ha, hb); c != headTie {
		return c
	}
	return compareTied(ha, a, hb, b)
}

// compareTied is compare's out-of-line half.
func compareTied(ha uint64, a Key, hb uint64, b Key) int {
	if c, ok := tieOrder(ha, hb); ok {
		return c
	}
	return sqlval.CompareRows(a, b)
}
