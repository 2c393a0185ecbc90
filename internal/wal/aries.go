// ARIES-style record codec. The disk-backed storage layer logs physical
// slot-image records (before/after images keyed by page and slot), commit
// records, and fuzzy-checkpoint records through the Log's framed
// AppendRecord path; the frame sequence number doubles as the record's LSN.
// Recovery (internal/sqldb/storage/heap) replays these in three passes.
//
// Every payload is self-describing: one kind byte followed by kind-specific
// fields, all little-endian. Decode never panics on malformed input — the
// frame checksum already rejects accidental corruption, so a decode failure
// means the log prefix cannot be trusted and is surfaced as a hard error.
package wal

import (
	"encoding/binary"
	"fmt"
)

// RecKind discriminates ARIES payloads.
type RecKind uint8

const (
	// KindUpdate is a physical slot-image update: redo applies After,
	// undo restores Before. An empty Before is an insert; an empty After
	// is a delete.
	KindUpdate RecKind = 1
	// KindCommit marks a transaction's updates durable; transactions with
	// updates but no commit record are recovery losers.
	KindCommit RecKind = 2
	// KindCheckpoint is a fuzzy checkpoint: the dirty page table at the
	// moment the record was logged. It bounds the redo pass but flushes
	// nothing.
	KindCheckpoint RecKind = 3
)

// SystemTxnID is the reserved transaction id for engine-internal updates
// (catalog records). Recovery treats it as always committed: system updates
// are only logged with a durability wait, never inside a user transaction.
const SystemTxnID uint64 = 0

// UpdateRec is one physical slot-image change.
type UpdateRec struct {
	TxnID  uint64
	PageID uint32
	Slot   uint16
	// Before is the slot image prior to the change (empty for inserts);
	// After is the image the change installed (empty for deletes).
	Before, After []byte
}

// DirtyPage is one dirty-page-table entry in a checkpoint: the page and the
// LSN of the oldest update that may not yet be on disk for it.
type DirtyPage struct {
	PageID uint32
	RecLSN uint64
}

// CheckpointRec is a fuzzy checkpoint's dirty page table, sorted by PageID
// so encoding is deterministic.
type CheckpointRec struct {
	Dirty []DirtyPage
}

// ARIESRecord is one decoded payload; Kind selects which field is set.
type ARIESRecord struct {
	Kind       RecKind
	Update     UpdateRec
	Commit     uint64 // committing transaction id
	Checkpoint CheckpointRec
}

// AppendUpdate appends an update record payload to b.
func AppendUpdate(b []byte, r UpdateRec) []byte {
	b = append(b, byte(KindUpdate))
	b = binary.LittleEndian.AppendUint64(b, r.TxnID)
	b = binary.LittleEndian.AppendUint32(b, r.PageID)
	b = binary.LittleEndian.AppendUint16(b, r.Slot)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Before)))
	b = append(b, r.Before...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.After)))
	b = append(b, r.After...)
	return b
}

// EncodeCommit encodes a commit record payload.
func EncodeCommit(txnID uint64) []byte {
	b := make([]byte, 1+8)
	b[0] = byte(KindCommit)
	binary.LittleEndian.PutUint64(b[1:], txnID)
	return b
}

// EncodeCheckpoint encodes a fuzzy-checkpoint payload. The caller must pass
// the dirty page table sorted by PageID (deterministic logs are what make
// the crash-torture sweep reproducible).
func EncodeCheckpoint(r CheckpointRec) []byte {
	b := make([]byte, 0, 1+4+len(r.Dirty)*12)
	b = append(b, byte(KindCheckpoint))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Dirty)))
	for _, d := range r.Dirty {
		b = binary.LittleEndian.AppendUint32(b, d.PageID)
		b = binary.LittleEndian.AppendUint64(b, d.RecLSN)
	}
	return b
}

// DecodeARIES decodes one payload previously produced by the Encode
// functions. Malformed input returns an error, never panics; trailing bytes
// after a well-formed record are also an error (payload frames are exact).
func DecodeARIES(p []byte) (ARIESRecord, error) {
	var rec ARIESRecord
	if len(p) == 0 {
		return rec, fmt.Errorf("wal: empty ARIES payload")
	}
	rec.Kind = RecKind(p[0])
	body := p[1:]
	switch rec.Kind {
	case KindUpdate:
		if len(body) < 8+4+2+4 {
			return rec, fmt.Errorf("wal: short update record (%d bytes)", len(p))
		}
		rec.Update.TxnID = binary.LittleEndian.Uint64(body[0:8])
		rec.Update.PageID = binary.LittleEndian.Uint32(body[8:12])
		rec.Update.Slot = binary.LittleEndian.Uint16(body[12:14])
		body = body[14:]
		var err error
		if rec.Update.Before, body, err = takeBlob(body); err != nil {
			return rec, fmt.Errorf("wal: update before-image: %w", err)
		}
		if rec.Update.After, body, err = takeBlob(body); err != nil {
			return rec, fmt.Errorf("wal: update after-image: %w", err)
		}
		if len(body) != 0 {
			return rec, fmt.Errorf("wal: %d trailing bytes after update record", len(body))
		}
	case KindCommit:
		if len(body) != 8 {
			return rec, fmt.Errorf("wal: commit record is %d bytes, want 9", len(p))
		}
		rec.Commit = binary.LittleEndian.Uint64(body)
	case KindCheckpoint:
		if len(body) < 4 {
			return rec, fmt.Errorf("wal: short checkpoint record (%d bytes)", len(p))
		}
		n := int(binary.LittleEndian.Uint32(body[0:4]))
		body = body[4:]
		if n < 0 || n > len(body)/12 {
			return rec, fmt.Errorf("wal: checkpoint claims %d dirty pages in %d bytes", n, len(body))
		}
		if len(body) != n*12 {
			return rec, fmt.Errorf("wal: %d trailing bytes after checkpoint record", len(body)-n*12)
		}
		dirty := make([]DirtyPage, n)
		for i := 0; i < n; i++ {
			dirty[i].PageID = binary.LittleEndian.Uint32(body[i*12:])
			dirty[i].RecLSN = binary.LittleEndian.Uint64(body[i*12+4:])
		}
		rec.Checkpoint.Dirty = dirty
	default:
		return rec, fmt.Errorf("wal: unknown ARIES record kind %d", p[0])
	}
	return rec, nil
}

// takeBlob consumes a u32-length-prefixed byte blob.
func takeBlob(b []byte) (blob, rest []byte, err error) {
	if len(b) < 4 {
		return nil, b, fmt.Errorf("truncated length prefix")
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	if n < 0 || n > len(b)-4 {
		return nil, b, fmt.Errorf("blob length %d exceeds %d remaining bytes", n, len(b)-4)
	}
	return b[4 : 4+n], b[4+n:], nil
}
