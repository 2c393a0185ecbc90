package heap

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"benchpress/internal/sqlval"
)

// FuzzPageRoundTrip exercises the slotted-page codec from two directions.
// First the input is treated as a raw device image: Verify must reject or
// accept it without panicking, and an accepted page must survive a full slot
// walk plus further mutations. Then the input is replayed as an operation
// script against a fresh page and the result is checked against a map model,
// sealed, verified, and finally corrupted by one byte — which must always
// fail verification (the torn-write detector).
func FuzzPageRoundTrip(f *testing.F) {
	// Seeds: a sealed empty page, a sealed populated page, an unsealed page,
	// a truncated image, and raw garbage doubling as an op script.
	empty := make([]byte, PageSize)
	Format(empty, 1)
	Seal(empty)
	f.Add(append([]byte(nil), empty...))

	popBuf := make([]byte, PageSize)
	pop := Format(popBuf, 2)
	_ = pop.Put(0, []byte("alpha"))
	_ = pop.Put(4, bytes.Repeat([]byte{0xCD}, 300))
	Seal(popBuf)
	f.Add(append([]byte(nil), popBuf...))

	unsealed := make([]byte, PageSize)
	Format(unsealed, 3)
	_ = AsPage(unsealed).Put(0, []byte("no checksum"))
	f.Add(append([]byte(nil), unsealed...))

	f.Add(popBuf[:100])
	f.Add([]byte{0x01, 0x40, 0xFF, 0x00, 0x07, 0x03, 0xAA, 0xBB, 0xCC, 0x02, 0x05})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: data as a device image. Pad/truncate to PageSize the
		// way a torn tail read does (zero fill).
		img := make([]byte, PageSize)
		copy(img, data)
		if err := Verify(img); err == nil {
			p := AsPage(img)
			for i, n := 0, p.NumSlots(); i < n; i++ {
				if rec, ok := p.Slot(i); ok && len(rec) == 0 {
					t.Fatalf("slot %d live with zero length", i)
				}
			}
			// A verified page must accept further redo-style mutations.
			if err := p.Put(0, []byte("redo")); err == nil {
				if rec, ok := p.Slot(0); !ok || string(rec) != "redo" {
					t.Fatal("put on verified page lost the record")
				}
			}
		}

		// Direction 2: data as an op script against a fresh page.
		buf := make([]byte, PageSize)
		p := Format(buf, 9)
		model := map[int][]byte{}
		in := data
		for len(in) >= 2 {
			slot := int(in[0] % 32)
			ln := int(in[1])
			in = in[2:]
			if ln > len(in) {
				ln = len(in)
			}
			if ln == 0 {
				p.Delete(slot)
				delete(model, slot)
				continue
			}
			rec := append([]byte(nil), in[:ln]...)
			in = in[ln:]
			if err := p.Put(slot, rec); err != nil {
				continue // page full is a legal outcome, not a bug
			}
			model[slot] = rec
		}
		for slot := 0; slot < 32; slot++ {
			want, live := model[slot]
			got, ok := p.Slot(slot)
			if ok != live {
				t.Fatalf("slot %d: model live=%v page live=%v", slot, live, ok)
			}
			if live && !bytes.Equal(got, want) {
				t.Fatalf("slot %d: %q != %q", slot, got, want)
			}
		}
		Seal(buf)
		if err := Verify(buf); err != nil {
			t.Fatalf("built page fails verification: %v", err)
		}
		// Any single corrupted byte must be caught: the checksum covers the
		// entire page.
		if len(data) > 0 {
			pos := int(data[0]) % PageSize
			buf[pos] ^= 1 + data[len(data)-1]%255
			if err := Verify(buf); err == nil {
				t.Fatalf("flipped byte at %d not detected", pos)
			}
		}
	})
}

// recordScript builds a row from a fuzz input: each value is a kind byte
// followed by its payload — eight bytes for numbers and timestamps, one for
// a bool, and for text a three-byte length (capped near 70 000, so 64 KiB
// strings are reachable) plus one fill byte; text past a 128 KiB total is
// cut to empty strings. A truncated tail is dropped.
func recordScript(in []byte) []sqlval.Value {
	var row []sqlval.Value
	budget := 128 << 10
	for len(in) > 0 {
		k := in[0] % 6
		in = in[1:]
		switch k {
		case 0:
			row = append(row, sqlval.Null())
		case 1, 2, 3:
			if len(in) < 8 {
				return row
			}
			u := binary.LittleEndian.Uint64(in)
			in = in[8:]
			switch k {
			case 1:
				row = append(row, sqlval.NewInt(int64(u)))
			case 2:
				row = append(row, sqlval.NewFloat(math.Float64frombits(u)))
			default:
				row = append(row, sqlval.NewTimeNanos(int64(u)))
			}
		case 4:
			if len(in) < 1 {
				return row
			}
			row = append(row, sqlval.NewBool(in[0]&1 == 1))
			in = in[1:]
		case 5:
			if len(in) < 4 {
				return row
			}
			n := min((int(in[0])|int(in[1])<<8|int(in[2])<<16)%70000, budget)
			budget -= n
			row = append(row, sqlval.NewString(strings.Repeat(string(rune('a'+in[3]%26)), n)))
			in = in[4:]
		}
	}
	return row
}

// sameValue is exact equality: same kind and same bits (NaN payloads and the
// sign of zero included), unlike SQL comparison.
func sameValue(a, b sqlval.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case sqlval.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case sqlval.KindString:
		return a.Str() == b.Str()
	case sqlval.KindInt, sqlval.KindTime, sqlval.KindBool:
		return a.Int() == b.Int()
	}
	return true
}

// FuzzRowRecord drives the row codec, which sits on every read path, from
// two directions. First the input is a record as found on a device or in
// memory: the decoder and the Col/DecodeInto accessors must return an error
// or a value, never panic, and agree with each other on a valid record.
// Then the input is a script of values: values -> record -> values must
// round-trip exactly, in one allocation of exactly RowSize bytes.
func FuzzRowRecord(f *testing.F) {
	num := func(kind byte, u uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{kind}, u)
	}
	text := func(n int, fill byte) []byte { return []byte{5, byte(n), byte(n >> 8), byte(n >> 16), fill} }
	edges := bytes.Join([][]byte{
		{0}, // NULL
		num(2, math.Float64bits(math.NaN())),
		num(2, 0x7ff8dead00000001), // NaN with a payload
		num(2, math.Float64bits(math.Copysign(0, -1))),
		num(3, 1<<63),          // earliest timestamp
		num(3, math.MaxInt64),  // latest timestamp
		num(1, math.MaxUint64), // -1
		{4, 1}, {4, 0},         // bools
		text(0, 0),      // empty string
		text(64<<10, 3), // 64 KiB string
	}, nil)
	f.Add(edges)
	f.Add(EncodeRow(recordScript(edges)))
	f.Add(EncodeRow(nil))
	f.Add([]byte{2, 0, byte(sqlval.KindString), 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0xff, 0xff, 1})
	f.Add([]byte{1, 0, byte(sqlval.KindBool), 7})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: data as a record.
		r := Record(data)
		n, nerr := r.NumCols()
		vals, derr := r.DecodeInto(make([]sqlval.Value, 0, 4))
		for i := -1; i <= n+1 && i < 300; i++ {
			v, err := r.Col(i)
			if derr == nil && i >= 0 && i < n {
				if err != nil || !sameValue(v, vals[i]) {
					t.Fatalf("Col(%d) = %v, %v; DecodeInto gave %v", i, v, err, vals[i])
				}
			} else if derr == nil && err == nil {
				t.Fatalf("Col(%d) of a %d-column record succeeded", i, n)
			}
		}
		if nerr == nil && derr == nil {
			if len(vals) != n {
				t.Fatalf("decoded %d columns of %d", len(vals), n)
			}
			if _, err := ParseRecord(data); err != nil {
				t.Fatalf("ParseRecord rejects a record DecodeInto accepts: %v", err)
			}
		} else if _, err := ParseRecord(data); err == nil {
			t.Fatal("ParseRecord accepts a record DecodeInto rejects")
		}

		// Direction 2: data as a script of values.
		row := recordScript(data)
		rec := EncodeRecord(row)
		if len(rec) != RowSize(row) || !bytes.Equal([]byte(rec), EncodeRow(row)) {
			t.Fatalf("record of %d bytes, RowSize %d, or differs from EncodeRow", len(rec), RowSize(row))
		}
		back, err := rec.DecodeInto(nil)
		if err != nil {
			t.Fatalf("encoded row does not decode: %v", err)
		}
		if len(back) != len(row) {
			t.Fatalf("round trip: %d columns, want %d", len(back), len(row))
		}
		for i := range row {
			if !sameValue(back[i], row[i]) {
				t.Fatalf("round trip column %d: %v (%s), want %v (%s)", i, back[i], back[i].Kind(), row[i], row[i].Kind())
			}
		}
	})
}
