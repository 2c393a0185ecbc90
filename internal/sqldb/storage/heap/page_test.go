package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"benchpress/internal/sqlval"
)

func TestPagePutGetDelete(t *testing.T) {
	buf := make([]byte, PageSize)
	p := Format(buf, 7)
	if p.ID() != 7 || p.NumSlots() != 0 {
		t.Fatalf("fresh page: id=%d slots=%d", p.ID(), p.NumSlots())
	}
	if err := p.Put(0, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(3, []byte("delta")); err != nil { // slots 1,2 become dead
		t.Fatal(err)
	}
	if got, ok := p.Slot(0); !ok || string(got) != "alpha" {
		t.Fatalf("slot 0: %q %v", got, ok)
	}
	if _, ok := p.Slot(1); ok {
		t.Fatal("dead slot 1 reads live")
	}
	if got, ok := p.Slot(3); !ok || string(got) != "delta" {
		t.Fatalf("slot 3: %q %v", got, ok)
	}
	// Replace with a longer record, then delete.
	if err := p.Put(0, []byte("a much longer record image")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Slot(0); string(got) != "a much longer record image" {
		t.Fatalf("replaced slot 0: %q", got)
	}
	p.Delete(3)
	if _, ok := p.Slot(3); ok {
		t.Fatal("deleted slot 3 reads live")
	}
	// Seal/Verify round trip, and LSN persistence.
	p.SetLSN(0xDEADBEEF)
	Seal(buf)
	if err := Verify(buf); err != nil {
		t.Fatalf("verify sealed page: %v", err)
	}
	if p.LSN() != 0xDEADBEEF {
		t.Fatalf("LSN = %#x", p.LSN())
	}
	// One flipped byte must fail verification (torn-write detection).
	buf[PageSize-1] ^= 0x40
	if err := Verify(buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("corrupt page verified: %v", err)
	}
}

func TestPageCompaction(t *testing.T) {
	buf := make([]byte, PageSize)
	p := Format(buf, 1)
	// Fill with records, delete every other one, then insert a record that
	// only fits after compaction reclaims the garbage.
	rec := bytes.Repeat([]byte{0xAA}, 100)
	n := 0
	for ; ; n++ {
		if err := p.Put(n, rec); err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatal(err)
			}
			break
		}
	}
	if n < 30 {
		t.Fatalf("only %d 100-byte records fit a %d-byte page", n, PageSize)
	}
	for i := 0; i < n; i += 2 {
		p.Delete(i)
	}
	big := bytes.Repeat([]byte{0xBB}, 120)
	if err := p.Put(0, big); err != nil {
		t.Fatalf("post-delete insert needing compaction: %v", err)
	}
	if got, ok := p.Slot(0); !ok || !bytes.Equal(got, big) {
		t.Fatal("compacted insert lost")
	}
	// Survivors intact after compaction.
	for i := 1; i < n; i += 2 {
		if got, ok := p.Slot(i); !ok || !bytes.Equal(got, rec) {
			t.Fatalf("slot %d corrupted by compaction", i)
		}
	}
}

func TestPagePutOversized(t *testing.T) {
	buf := make([]byte, PageSize)
	p := Format(buf, 1)
	if err := p.Put(0, bytes.Repeat([]byte{1}, PageSize)); !errors.Is(err, ErrPageFull) {
		t.Fatalf("oversized record accepted: %v", err)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := [][]sqlval.Value{
		{sqlval.NewInt(42), sqlval.NewString("hello"), sqlval.Null()},
		{sqlval.NewFloat(3.25), sqlval.NewBool(true), sqlval.NewBool(false)},
		{},
		{sqlval.NewString(""), sqlval.NewInt(-1)},
	}
	for i, row := range rows {
		got, err := DecodeRow(EncodeRow(row))
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if len(got) != len(row) {
			t.Fatalf("row %d: %d values, want %d", i, len(got), len(row))
		}
		for j := range row {
			if row[j].IsNull() != got[j].IsNull() || (!row[j].IsNull() && sqlval.Compare(row[j], got[j]) != 0) {
				t.Fatalf("row %d col %d: %v != %v", i, j, got[j], row[j])
			}
		}
	}
	for i, bad := range [][]byte{nil, {1}, {2, 0, byte(sqlval.KindInt), 1}, {1, 0, 99}} {
		if _, err := DecodeRow(bad); err == nil {
			t.Errorf("bad row %d decoded", i)
		}
	}
}

// TestPageRandomizedOps drives a page against a map model with a mixed
// workload of puts, replacements, and deletes at random slots.
func TestPageRandomizedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, PageSize)
	p := Format(buf, 3)
	model := map[int][]byte{}
	for step := 0; step < 5000; step++ {
		slot := rng.Intn(40)
		switch rng.Intn(3) {
		case 0, 1:
			rec := make([]byte, 1+rng.Intn(60))
			for i := range rec {
				rec[i] = byte(rng.Intn(256))
			}
			if err := p.Put(slot, rec); err != nil {
				if !errors.Is(err, ErrPageFull) {
					t.Fatal(err)
				}
				continue
			}
			model[slot] = rec
		case 2:
			p.Delete(slot)
			delete(model, slot)
		}
	}
	for slot := 0; slot < 40; slot++ {
		want, live := model[slot]
		got, ok := p.Slot(slot)
		if ok != live || (live && !bytes.Equal(got, want)) {
			t.Fatalf("slot %d: model live=%v page live=%v", slot, live, ok)
		}
	}
	Seal(buf)
	if err := Verify(buf); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsCraftedGeometry(t *testing.T) {
	buf := make([]byte, PageSize)
	p := Format(buf, 1)
	if err := p.Put(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Point the slot outside the records area and re-seal: checksum is
	// valid, geometry is not.
	p.setSlotEntry(0, PageSize-1, 40)
	Seal(buf)
	if err := Verify(buf); !errors.Is(err, ErrBadPage) {
		t.Fatalf("crafted geometry verified: %v", err)
	}
}

func ExampleFormat() {
	buf := make([]byte, PageSize)
	p := Format(buf, 12)
	_ = p.Put(0, []byte("row"))
	rec, _ := p.Slot(0)
	fmt.Println(p.ID(), string(rec))
	// Output: 12 row
}

// TestChecksumDetectsEveryBitFlip flips each bit of a sealed page in turn
// and requires Verify to reject every image. The WAL frame checksum has its
// own test (wal.TestFrameChecksumDetectsEveryPayloadBitFlip).
func TestChecksumDetectsEveryBitFlip(t *testing.T) {
	buf := make([]byte, PageSize)
	p := Format(buf, 11)
	for i, rec := range []string{"alpha", "a longer second record", "gamma"} {
		if err := p.Put(i, []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	p.SetLSN(42)
	Seal(buf)
	if err := Verify(buf); err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < PageSize*8; bit++ {
		buf[bit/8] ^= 1 << (bit % 8)
		if Verify(buf) == nil {
			t.Fatalf("page with bit %d flipped verifies", bit)
		}
		buf[bit/8] ^= 1 << (bit % 8)
	}
}

// BenchmarkPageChecksum measures Seal, the checksum every dirty page pays on
// write-back (Verify pays the same on every pool miss).
func BenchmarkPageChecksum(b *testing.B) {
	buf := make([]byte, PageSize)
	p := Format(buf, 1)
	for i := 0; i < 30; i++ {
		if err := p.Put(i, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(PageSize)
	for i := 0; i < b.N; i++ {
		Seal(buf)
	}
}
