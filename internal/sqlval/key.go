package sqlval

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// AppendKey appends the index-key encoding of vals to dst and returns the
// extended slice. The encoding is order-preserving and self-delimiting, one
// value after another:
//
//	NULL                      0x01
//	Float                     0x02, then the IEEE-754 bits big-endian with
//	                          the sign bit flipped (every bit of a negative);
//	                          -0 is written as +0 and every NaN alike
//	String                    0x03, then the bytes with 0x00 written as
//	                          0x00 0xFF, then the terminator 0x00 0x01
//	Int, Bool, Time  x < 0    tag 0x10-n, then x's low n bytes big-endian,
//	                          n = 1..8 the fewest with x >= -2^(8n)
//	                 x < 0xE0 the single byte 0x10+x
//	                 larger   tag 0xEF+n, then x's n bytes big-endian
//	Top()                     0xFF
//
// For keys whose columns each hold one kind (plus NULL), as a table's
// columns do, byte order is CompareRows order: NULL first, Top() last, and
// Int, Bool and Time as the one int64 domain Compare orders them in. A
// column prefix of a key is a byte prefix of it. Across kinds the tags only
// keep keys apart — a Float and an Int never encode alike, while an Int and
// a Time of equal value do, as Compare says — so the encoding also serves
// as a hash key (GROUP BY, DISTINCT).
func AppendKey(dst []byte, vals ...Value) []byte {
	for i := range vals {
		switch v := &vals[i]; v.kind {
		case KindNull:
			dst = append(dst, 0x01)
		case KindTop:
			dst = append(dst, 0xFF)
		case KindFloat:
			b := uint64(v.i)
			if f := v.f(); f == 0 {
				b = 0
			} else if f != f {
				b = math.Float64bits(math.NaN())
			}
			if b>>63 == 1 {
				b = ^b
			} else {
				b |= 1 << 63
			}
			dst = binary.BigEndian.AppendUint64(append(dst, 0x02), b)
		case KindString:
			dst = append(dst, 0x03)
			for j := 0; j < len(v.s); j++ {
				if v.s[j] == 0 {
					dst = append(dst, 0x00, 0xFF)
				} else {
					dst = append(dst, v.s[j])
				}
			}
			dst = append(dst, 0x00, 0x01)
		default: // Int, Bool, Time
			x := v.i
			var n int
			switch {
			case x < 0:
				n = max(1, (bits.Len64(uint64(^x))+7)/8)
				dst = append(dst, 0x10-byte(n))
			case x < 0xE0:
				dst = append(dst, 0x10+byte(x))
				continue
			default:
				n = (bits.Len64(uint64(x)) + 7) / 8
				dst = append(dst, 0xEF+byte(n))
			}
			for j := n - 1; j >= 0; j-- {
				dst = append(dst, byte(uint64(x)>>(8*j)))
			}
		}
	}
	return dst
}

// KeyBound converts v, a value searched for in a column of kind k, into the
// value b that every value x of kind k compares with as it compares with v:
// Compare(x, b) == Compare(x, v). An index over the column can then seek to
// AppendKey(b). ok is false when no such b exists, because Compare does not
// order v monotonically against the column's kind — 5.5, '1a' or 2^60 as a
// float against an INTEGER column, a number against a VARCHAR one — and the
// search must not narrow on v. NULL and Top() pass through.
func KeyBound(v Value, k Kind) (b Value, ok bool) {
	intDomain := func(k Kind) bool { return k == KindInt || k == KindBool || k == KindTime }
	switch {
	case v.kind == KindNull || v.kind == KindTop || v.kind == k:
		return v, k != KindFloat || !math.IsNaN(v.f())
	case k == KindString: // Compare orders text against a time by its text
		return NewString(v.Format()), v.kind == KindTime
	case k != KindFloat && !intDomain(k):
		return Value{}, false
	case intDomain(k) && intDomain(v.kind):
		return v, true
	}
	// Against an Int, Bool or Float column Compare widens v to a float;
	// against a Time column it truncates a float and orders text as text.
	var f float64
	switch v.kind {
	case KindInt, KindBool:
		f = float64(v.i)
	case KindFloat:
		f = v.f()
	case KindString:
		var err error
		if f, err = strconv.ParseFloat(strings.TrimSpace(v.s), 64); err != nil || k == KindTime {
			return Value{}, false
		}
	default:
		return Value{}, false
	}
	if k == KindFloat {
		return NewFloat(f), !math.IsNaN(f)
	}
	// An integral float below 2^53 names one integer, and every integer
	// compares with it as with that integer; any other float (NaN, ±Inf
	// included) falls between integers or equals several once widened.
	if f != math.Trunc(f) || math.Abs(f) >= 1<<53 {
		return Value{}, false
	}
	return NewInt(int64(f)), true
}
