package heap

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"benchpress/internal/sqlval"
)

// Row codec: the byte form of one row image inside a heap record. Layout is
// a u16 column count followed by one kind byte per value and a fixed or
// length-prefixed payload. Decoding bounds-checks everything and returns
// errors, never panics — recovery decodes records straight off a crashed
// device and the page fuzz target feeds garbage.

// EncodeRow serializes a row image.
func EncodeRow(vals []sqlval.Value) []byte {
	b := make([]byte, 0, 2+len(vals)*9)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(vals)))
	for _, v := range vals {
		b = append(b, byte(v.Kind()))
		switch v.Kind() {
		case sqlval.KindNull:
		case sqlval.KindInt:
			b = binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
		case sqlval.KindFloat:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
		case sqlval.KindString:
			s := v.Str()
			b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
			b = append(b, s...)
		case sqlval.KindBool:
			if v.Bool() {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		case sqlval.KindTime:
			b = binary.LittleEndian.AppendUint64(b, uint64(v.Time().UnixNano()))
		default:
			// Unstorable kinds (KindTop) never reach committed rows; encode
			// as NULL so the record stays decodable.
			b[len(b)-1] = byte(sqlval.KindNull)
		}
	}
	return b
}

// DecodeRow deserializes a row image produced by EncodeRow.
func DecodeRow(b []byte) ([]sqlval.Value, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("heap: row image of %d bytes", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	vals := make([]sqlval.Value, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, fmt.Errorf("heap: row image truncated at column %d", i)
		}
		kind := sqlval.Kind(b[0])
		b = b[1:]
		switch kind {
		case sqlval.KindNull:
			vals = append(vals, sqlval.Null())
		case sqlval.KindInt, sqlval.KindFloat, sqlval.KindTime:
			if len(b) < 8 {
				return nil, fmt.Errorf("heap: row image truncated at column %d payload", i)
			}
			u := binary.LittleEndian.Uint64(b)
			b = b[8:]
			switch kind {
			case sqlval.KindInt:
				vals = append(vals, sqlval.NewInt(int64(u)))
			case sqlval.KindFloat:
				vals = append(vals, sqlval.NewFloat(math.Float64frombits(u)))
			default:
				vals = append(vals, sqlval.NewTime(time.Unix(0, int64(u))))
			}
		case sqlval.KindString:
			if len(b) < 4 {
				return nil, fmt.Errorf("heap: row image truncated at column %d length", i)
			}
			ln := int(binary.LittleEndian.Uint32(b))
			b = b[4:]
			if ln < 0 || ln > len(b) {
				return nil, fmt.Errorf("heap: column %d string length %d exceeds %d bytes", i, ln, len(b))
			}
			vals = append(vals, sqlval.NewString(string(b[:ln])))
			b = b[ln:]
		case sqlval.KindBool:
			if len(b) < 1 {
				return nil, fmt.Errorf("heap: row image truncated at column %d payload", i)
			}
			vals = append(vals, sqlval.NewBool(b[0] != 0))
			b = b[1:]
		default:
			return nil, fmt.Errorf("heap: row image column %d has unknown kind %d", i, kind)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("heap: %d trailing bytes after row image", len(b))
	}
	return vals, nil
}
