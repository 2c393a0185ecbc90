package heap

import (
	"encoding/binary"
	"math"
	"strconv"
	"unsafe"

	"benchpress/internal/sqlval"
)

// Row codec: the byte form of one row image. Layout is a u16 column count
// followed, per column, by one kind byte and a fixed or length-prefixed
// payload:
//
//	NULL   kind
//	INT    kind, u64 value
//	FLOAT  kind, u64 IEEE-754 bits
//	TIME   kind, u64 UTC Unix nanoseconds
//	BOOL   kind, u8 0/1
//	TEXT   kind, u32 length, bytes
//
// All integers are little-endian. The same bytes are a heap record's body on
// disk and, as a Record, a row version in RAM, so the engine keeps one codec.
// Decoding bounds-checks everything and returns errors, never panics —
// recovery decodes records straight off a crashed device and the fuzz
// targets feed garbage.

// Record is one row image in the row codec's layout, held as an immutable
// string: a single pointer-free allocation the garbage collector never scans.
// Decoding a text column yields a substring of the record, so reads copy no
// bytes — and a decoded text value keeps the whole record alive for as long
// as it is referenced.
type Record string

// RecordError reports a malformed record. It is returned by pointer so the
// executor's scan loops can carry it without boxing.
type RecordError struct {
	Col    int // column being decoded; -1 for the header or the tail
	Reason string
}

func (e *RecordError) Error() string {
	if e.Col < 0 {
		return "heap: row record " + e.Reason
	}
	return "heap: row record column " + strconv.Itoa(e.Col) + ": " + e.Reason
}

// RowSize returns the encoded size of vals in bytes.
func RowSize(vals []sqlval.Value) int {
	n := 2 + len(vals)
	for _, v := range vals {
		switch v.Kind() {
		case sqlval.KindInt, sqlval.KindFloat, sqlval.KindTime:
			n += 8
		case sqlval.KindString:
			n += 4 + len(v.Str())
		case sqlval.KindBool:
			n++
		}
	}
	return n
}

// appendValue appends v's kind byte and fixed payload — for text, the
// length prefix; the caller appends the bytes themselves.
func appendValue(b []byte, v sqlval.Value) []byte {
	switch v.Kind() {
	case sqlval.KindInt:
		return binary.LittleEndian.AppendUint64(append(b, byte(sqlval.KindInt)), uint64(v.Int()))
	case sqlval.KindFloat:
		return binary.LittleEndian.AppendUint64(append(b, byte(sqlval.KindFloat)), math.Float64bits(v.Float()))
	case sqlval.KindTime:
		return binary.LittleEndian.AppendUint64(append(b, byte(sqlval.KindTime)), uint64(v.Int()))
	case sqlval.KindString:
		return binary.LittleEndian.AppendUint32(append(b, byte(sqlval.KindString)), uint32(len(v.Str())))
	case sqlval.KindBool:
		if v.Bool() {
			return append(b, byte(sqlval.KindBool), 1)
		}
		return append(b, byte(sqlval.KindBool), 0)
	default:
		// NULL, and the unstorable kinds (KindTop) that never reach
		// committed rows: encode as NULL so the record stays decodable.
		return append(b, byte(sqlval.KindNull))
	}
}

// EncodeRow serializes a row image into a fresh slice of exactly
// RowSize(vals) bytes.
func EncodeRow(vals []sqlval.Value) []byte {
	b := binary.LittleEndian.AppendUint16(make([]byte, 0, RowSize(vals)), uint16(len(vals)))
	for _, v := range vals {
		b = appendValue(b, v)
		if v.Kind() == sqlval.KindString {
			b = append(b, v.Str()...)
		}
	}
	return b
}

// EncodeRecord serializes a row image as a Record: one allocation of exactly
// RowSize(vals) bytes, which shares no memory with vals. The bytes are
// EncodeRow's, handed to the string without a copy — the way
// strings.Builder hands over its buffer — because nothing else holds the
// slice and nothing writes it again.
func EncodeRecord(vals []sqlval.Value) Record {
	b := EncodeRow(vals)
	return Record(unsafe.String(unsafe.SliceData(b), len(b)))
}

// ParseRecord validates b as a row image — it must decode completely, with
// nothing left over — and returns it as a Record (one copy of b).
func ParseRecord(b []byte) (Record, error) {
	r := Record(b)
	if _, err := r.DecodeInto(nil); err != nil {
		return "", err
	}
	return r, nil
}

// DecodeRow deserializes a row image produced by EncodeRow. The values'
// text shares one copy of b.
func DecodeRow(b []byte) ([]sqlval.Value, error) {
	return Record(b).DecodeInto(nil)
}

// NumCols returns the record's column count.
func (r Record) NumCols() (int, error) {
	if len(r) < 2 {
		return 0, &RecordError{Col: -1, Reason: "shorter than its header"}
	}
	return int(r[0]) | int(r[1])<<8, nil
}

// value decodes the column starting at off, returning it and the offset of
// the next column.
func (r Record) value(col, off int) (sqlval.Value, int, error) {
	if off >= len(r) {
		return sqlval.Value{}, 0, &RecordError{Col: col, Reason: "truncated before its kind"}
	}
	kind := sqlval.Kind(r[off])
	off++
	switch kind {
	case sqlval.KindNull:
		return sqlval.Null(), off, nil
	case sqlval.KindInt, sqlval.KindFloat, sqlval.KindTime:
		if len(r)-off < 8 {
			return sqlval.Value{}, 0, &RecordError{Col: col, Reason: "truncated payload"}
		}
		u := le64(r, off)
		off += 8
		switch kind {
		case sqlval.KindInt:
			return sqlval.NewInt(int64(u)), off, nil
		case sqlval.KindFloat:
			return sqlval.NewFloat(math.Float64frombits(u)), off, nil
		default:
			return sqlval.NewTimeNanos(int64(u)), off, nil
		}
	case sqlval.KindString:
		if len(r)-off < 4 {
			return sqlval.Value{}, 0, &RecordError{Col: col, Reason: "truncated length"}
		}
		ln := le32(r, off)
		off += 4
		if ln > uint64(len(r)-off) {
			return sqlval.Value{}, 0, &RecordError{Col: col, Reason: "text runs past the record"}
		}
		end := off + int(ln)
		return sqlval.NewString(string(r[off:end])), end, nil
	case sqlval.KindBool:
		if off >= len(r) {
			return sqlval.Value{}, 0, &RecordError{Col: col, Reason: "truncated payload"}
		}
		return sqlval.NewBool(r[off] != 0), off + 1, nil
	default:
		return sqlval.Value{}, 0, &RecordError{Col: col, Reason: "unknown kind"}
	}
}

// Col decodes column i. Text shares the record's bytes.
func (r Record) Col(i int) (sqlval.Value, error) {
	n, err := r.NumCols()
	if err != nil {
		return sqlval.Value{}, err
	}
	if i < 0 || i >= n {
		return sqlval.Value{}, &RecordError{Col: i, Reason: "out of range"}
	}
	off := 2
	for c := 0; c < i; c++ {
		if _, off, err = r.value(c, off); err != nil {
			return sqlval.Value{}, err
		}
	}
	v, _, err := r.value(i, off)
	return v, err
}

// DecodeInto decodes every column into dst[:0], growing it only when its
// capacity is short, and returns the filled slice. Text shares the record's
// bytes, so a decode into a reused buffer allocates nothing.
func (r Record) DecodeInto(dst []sqlval.Value) ([]sqlval.Value, error) {
	n, err := r.NumCols()
	if err != nil {
		return nil, err
	}
	if n > len(r)-2 {
		return nil, &RecordError{Col: -1, Reason: "claims more columns than it has bytes"}
	}
	if t := warm(r); t == 0x7f && len(r) == 3 {
		warmSink = t // never runs (see warm): it only keeps the loads
	}
	if cap(dst) < n {
		dst = make([]sqlval.Value, n)
	}
	dst = dst[:n]
	// The loop is value() unrolled for the common, well-formed case: every
	// read path runs it once per row. Anything out of bounds defers to
	// value(), which fails the same way with the precise error.
	off := 2
	for c := range dst {
		if off >= len(r) {
			return nil, r.valueErr(c, off)
		}
		switch sqlval.Kind(r[off]) {
		case sqlval.KindNull:
			dst[c] = sqlval.Null()
			off++
		case sqlval.KindInt:
			if len(r)-off < 9 {
				return nil, r.valueErr(c, off)
			}
			dst[c] = sqlval.NewInt(int64(le64(r, off+1)))
			off += 9
		case sqlval.KindString:
			if len(r)-off < 5 {
				return nil, r.valueErr(c, off)
			}
			start := off + 5
			ln := le32(r, off+1)
			if ln > uint64(len(r)-start) {
				return nil, r.valueErr(c, off)
			}
			off = start + int(ln)
			dst[c] = sqlval.NewString(string(r[start:off]))
		default:
			v, next, err := r.value(c, off)
			if err != nil {
				return nil, err
			}
			dst[c], off = v, next
		}
	}
	if off != len(r) {
		return nil, &RecordError{Col: -1, Reason: "has trailing bytes"}
	}
	return dst, nil
}

// warm loads one byte of each cache line of r past the first, and returns
// them ORed. A decode walk is a chain of dependent loads — where a column
// starts depends on the previous column's length — so on a record that is
// not in cache its misses would come one after another; these loads are
// independent, so the processor overlaps them, and the walk then runs from
// cache. DecodeInto feeds the result to a store whose condition no input
// meets (a record of 3 bytes leaves it 0), only so that the compiler keeps
// the loads.
func warm(r Record) byte {
	var t byte
	for i := 64; i < len(r); i += 64 {
		t |= r[i]
	}
	return t
}

// warmSink is the never-written target that keeps warm's loads alive.
var warmSink byte

// valueErr is the error value() reports for the malformed column c at off.
func (r Record) valueErr(c, off int) error {
	_, _, err := r.value(c, off)
	return err
}

// le64 and le32 read little-endian integers at r[off:].
func le64(r Record, off int) uint64 {
	_ = r[off+7]
	return uint64(r[off]) | uint64(r[off+1])<<8 | uint64(r[off+2])<<16 | uint64(r[off+3])<<24 |
		uint64(r[off+4])<<32 | uint64(r[off+5])<<40 | uint64(r[off+6])<<48 | uint64(r[off+7])<<56
}

func le32(r Record, off int) uint64 {
	_ = r[off+3]
	return uint64(r[off]) | uint64(r[off+1])<<8 | uint64(r[off+2])<<16 | uint64(r[off+3])<<24
}
