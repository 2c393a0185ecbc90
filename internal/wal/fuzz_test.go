package wal

import (
	"bytes"
	"testing"
)

// FuzzWALRecordDecode drives the ARIES payload parser with hostile input:
// any byte string must either decode to a well-formed record or return an
// error — never panic. Well-formed seeds additionally round-trip through a
// framed log so ScanRecords' tolerance contract (torn tail vs hard error)
// is exercised on mutated frames too.
func FuzzWALRecordDecode(f *testing.F) {
	seeds := [][]byte{
		AppendUpdate(nil, UpdateRec{TxnID: 3, PageID: 1, Slot: 2, Before: []byte("b"), After: []byte("after-image")}),
		AppendUpdate(nil, UpdateRec{TxnID: 1, PageID: 0, After: bytes.Repeat([]byte{0xAB}, 100)}),
		AppendUpdate(nil, UpdateRec{TxnID: 1, PageID: 9, Slot: 4, Before: []byte("gone")}),
		EncodeCommit(77),
		EncodeCheckpoint(CheckpointRec{Dirty: []DirtyPage{{PageID: 2, RecLSN: 5}, {PageID: 8, RecLSN: 9}}}),
		EncodeCheckpoint(CheckpointRec{}),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)-1])    // truncated tail
		f.Add(append(s, 0x00)) // trailing byte
		f.Add(s[:1])           // kind byte only
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	// Absurd length prefix inside an update record body.
	huge := AppendUpdate(nil, UpdateRec{TxnID: 1, PageID: 1, After: []byte("x")})
	huge[15] = 0xFF
	huge[16] = 0xFF
	f.Add(huge)

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeARIES(payload)
		if err != nil {
			return
		}
		// A successful decode must re-encode to bytes that decode to the
		// same record (the encoders are the only writers of this format).
		var enc []byte
		switch rec.Kind {
		case KindUpdate:
			enc = AppendUpdate(nil, rec.Update)
		case KindCommit:
			enc = EncodeCommit(rec.Commit)
		case KindCheckpoint:
			enc = EncodeCheckpoint(rec.Checkpoint)
		default:
			t.Fatalf("decode returned unknown kind %d without error", rec.Kind)
		}
		rec2, err := DecodeARIES(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded record failed: %v", err)
		}
		if rec2.Kind != rec.Kind {
			t.Fatalf("round trip changed kind: %d -> %d", rec.Kind, rec2.Kind)
		}

		// Frame the payload into a log and replay it: the framed path must
		// return the payload intact, and mutating any frame byte must yield
		// ErrTorn or a hard error, never a panic or silent corruption.
		var sink bytes.Buffer
		l := New(Options{Policy: SyncNone, W: &sink})
		if err := l.AppendRecord(payload); err != nil {
			t.Fatalf("append: %v", err)
		}
		recs, _, err := ScanRecords(sink.Bytes())
		if err != nil || len(recs) != 1 || !bytes.Equal(recs[0].Payload, payload) {
			t.Fatalf("framed round trip: %d recs, err=%v", len(recs), err)
		}
		if sink.Len() > 0 {
			mut := append([]byte{}, sink.Bytes()...)
			mut[len(mut)-1] ^= 0x01
			got, _, err := ScanRecords(mut)
			if err == nil && len(got) == 1 && bytes.Equal(got[0].Payload, payload) {
				t.Fatalf("mutated frame scanned as the original record")
			}
		}
	})
}
