package dbdriver

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"benchpress/internal/sqldb/storage/heap"
	"benchpress/internal/wal"
)

// fnv32a is the checksum of the older on-disk format.
func fnv32a(parts ...[]byte) uint32 {
	h := fnv.New32a()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum32()
}

// TestOpenRejectsOlderDiskFormat builds a data directory the way a build
// with FNV-32a checksums wrote it — heap page magic 0x50C4, frame magic 0xB7
// — and requires the open to fail on the format, touching neither file. A
// reader that took the old frames for a torn tail would recover an empty
// database and truncate the log.
func TestOpenRejectsOlderDiskFormat(t *testing.T) {
	dir := t.TempDir()

	page := make([]byte, heap.PageSize)
	if err := heap.Format(page, 0).Put(0, []byte("row")); err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint16(page[0:2], 0x50C4)
	binary.BigEndian.PutUint32(page[20:24], fnv32a(page[:20], make([]byte, 4), page[24:]))

	var log []byte
	payloads := [][]byte{
		wal.AppendUpdate(nil, wal.UpdateRec{TxnID: 1, PageID: 0, Slot: 0, After: []byte("row")}),
		wal.EncodeCommit(1),
	}
	for i, p := range payloads {
		log = append(log, 0xB7, 0, 0, 0)
		log = binary.BigEndian.AppendUint64(log, uint64(i+1))
		log = binary.BigEndian.AppendUint32(log, uint32(len(p)))
		log = binary.BigEndian.AppendUint32(log, fnv32a(p))
		log = append(log, p...)
	}

	heapPath, walPath := filepath.Join(dir, "heap.db"), filepath.Join(dir, "wal.log")
	if err := os.WriteFile(heapPath, page, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, log, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := heap.Verify(page); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("Verify of an older-format page: %v, want a bad-magic error", err)
	}

	p, err := Lookup("golock")
	if err != nil {
		t.Fatal(err)
	}
	p.DataDir = dir
	db, err := OpenWith(p)
	if err == nil {
		db.Close()
		t.Fatal("opened a data directory of the older format")
	}
	if msg := err.Error(); !strings.Contains(msg, "format") || !strings.Contains(msg, "0xb7") {
		t.Fatalf("open error %q does not name the log format", msg)
	}
	for path, want := range map[string][]byte{heapPath: page, walPath: log} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed: %d bytes, was %d", filepath.Base(path), len(got), len(want))
		}
	}
}
