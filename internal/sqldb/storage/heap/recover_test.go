package heap

import (
	"bytes"
	"reflect"
	"testing"

	"benchpress/internal/wal"
)

// rec builds one decoded-log entry for Recover.
func rec(seq uint64, payload []byte) wal.Record { return wal.Record{Seq: seq, Payload: payload} }

func upd(txn uint64, page uint32, slot uint16, before, after []byte) []byte {
	return wal.AppendUpdate(nil, wal.UpdateRec{TxnID: txn, PageID: page, Slot: slot, Before: before, After: after})
}

func readPage(t *testing.T, dev Device, id uint32) Page {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := dev.ReadPage(id, buf); err != nil {
		t.Fatalf("read page %d: %v", id, err)
	}
	if err := Verify(buf); err != nil {
		t.Fatalf("recovered page %d: %v", id, err)
	}
	return AsPage(buf)
}

func slotString(t *testing.T, p Page, i int) string {
	t.Helper()
	rec, ok := p.Slot(i)
	if !ok {
		return "<dead>"
	}
	return string(rec)
}

// TestRecoverRedoWinnersSkipLosers: committed updates are replayed onto an
// empty device; updates of a transaction without a commit record are not.
func TestRecoverRedoWinnersSkipLosers(t *testing.T) {
	dev := NewMemDevice()
	log := []wal.Record{
		rec(1, upd(1, 0, 0, nil, []byte("a"))),
		rec(2, upd(1, 0, 1, nil, []byte("b"))),
		rec(3, wal.EncodeCommit(1)),
		rec(4, upd(2, 0, 0, []byte("a"), []byte("loser"))), // no commit follows
	}
	res, err := Recover(dev, log)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Winners, []uint64{1}) || !reflect.DeepEqual(res.Losers, []uint64{2}) {
		t.Fatalf("winners=%v losers=%v", res.Winners, res.Losers)
	}
	if res.Redone != 2 || res.Undone != 0 || res.MaxLSN != 4 {
		t.Fatalf("redone=%d undone=%d maxLSN=%d", res.Redone, res.Undone, res.MaxLSN)
	}
	p := readPage(t, dev, 0)
	if slotString(t, p, 0) != "a" || slotString(t, p, 1) != "b" {
		t.Fatalf("page: slot0=%q slot1=%q", slotString(t, p, 0), slotString(t, p, 1))
	}
	if len(res.Updates) != 2 || res.Updates[0].LSN != 1 || res.Updates[1].LSN != 2 {
		t.Fatalf("materialized updates: %+v", res.Updates)
	}
}

// TestRecoverCheckpointBoundsRedo: updates older than the checkpoint's redo
// point are trusted to be on disk and skipped.
func TestRecoverCheckpointBoundsRedo(t *testing.T) {
	dev := NewMemDevice()
	// Flushed state: page 0 holds txn 1's update, pageLSN 1.
	buf := make([]byte, PageSize)
	p := Format(buf, 0)
	if err := p.Put(0, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	p.SetLSN(1)
	Seal(buf)
	if err := dev.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	log := []wal.Record{
		rec(1, upd(1, 0, 0, nil, []byte("v1"))),
		rec(2, wal.EncodeCommit(1)),
		rec(3, wal.EncodeCheckpoint(wal.CheckpointRec{})), // clean DPT: page flushed
		rec(4, upd(2, 0, 1, nil, []byte("v2"))),
		rec(5, wal.EncodeCommit(2)),
	}
	res, err := Recover(dev, log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 1 {
		t.Fatalf("redone=%d, want only the post-checkpoint update", res.Redone)
	}
	p = readPage(t, dev, 0)
	if slotString(t, p, 0) != "v1" || slotString(t, p, 1) != "v2" {
		t.Fatalf("slot0=%q slot1=%q", slotString(t, p, 0), slotString(t, p, 1))
	}
	if p.LSN() != 4 {
		t.Fatalf("pageLSN=%d", p.LSN())
	}
}

// TestRecoverDirtyPageTableLowersRedoPoint: a checkpoint whose DPT carries a
// recLSN below the checkpoint forces redo from that recLSN, repairing a page
// that was dirty (not yet flushed) at checkpoint time.
func TestRecoverDirtyPageTableLowersRedoPoint(t *testing.T) {
	dev := NewMemDevice() // page 0 never made it to disk
	log := []wal.Record{
		rec(1, upd(1, 0, 0, nil, []byte("dirty"))),
		rec(2, wal.EncodeCommit(1)),
		rec(3, wal.EncodeCheckpoint(wal.CheckpointRec{Dirty: []wal.DirtyPage{{PageID: 0, RecLSN: 1}}})),
	}
	res, err := Recover(dev, log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 1 {
		t.Fatalf("redone=%d", res.Redone)
	}
	if got := slotString(t, readPage(t, dev, 0), 0); got != "dirty" {
		t.Fatalf("slot0=%q", got)
	}
}

// TestRecoverTornPageForcesFullReplay: a page that fails verification is
// rebuilt from the log start even when a checkpoint would bound redo later.
func TestRecoverTornPageForcesFullReplay(t *testing.T) {
	dev := NewMemDevice()
	// A flushed-then-torn image of page 0.
	buf := make([]byte, PageSize)
	p := Format(buf, 0)
	if err := p.Put(0, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	p.SetLSN(1)
	Seal(buf)
	if err := dev.WritePartial(0, buf, 100); err != nil { // torn mid-write
		t.Fatal(err)
	}
	log := []wal.Record{
		rec(1, upd(1, 0, 0, nil, []byte("v1"))),
		rec(2, wal.EncodeCommit(1)),
		rec(3, wal.EncodeCheckpoint(wal.CheckpointRec{})),
		rec(4, upd(2, 0, 1, nil, []byte("v2"))),
		rec(5, wal.EncodeCommit(2)),
	}
	res, err := Recover(dev, log)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.TornPages, []uint32{0}) {
		t.Fatalf("torn pages: %v", res.TornPages)
	}
	if res.Redone != 2 {
		t.Fatalf("redone=%d, want full-history replay", res.Redone)
	}
	p = readPage(t, dev, 0)
	if slotString(t, p, 0) != "v1" || slotString(t, p, 1) != "v2" {
		t.Fatalf("slot0=%q slot1=%q", slotString(t, p, 0), slotString(t, p, 1))
	}
}

// TestRecoverUndoRestoresBeforeImage: if a loser's after-image somehow
// reached a page (a stolen write), undo restores the before-image — but only
// when the slot actually holds the loser's after-image.
func TestRecoverUndoRestoresBeforeImage(t *testing.T) {
	dev := NewMemDevice()
	// Device state: loser txn 3's after-image is on the page at pageLSN 3.
	buf := make([]byte, PageSize)
	p := Format(buf, 0)
	if err := p.Put(0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	p.SetLSN(3)
	Seal(buf)
	if err := dev.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	log := []wal.Record{
		rec(1, upd(1, 0, 0, nil, []byte("old"))),
		rec(2, wal.EncodeCommit(1)),
		rec(3, upd(3, 0, 0, []byte("old"), []byte("new"))), // loser, stolen
	}
	res, err := Recover(dev, log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Undone != 1 {
		t.Fatalf("undone=%d", res.Undone)
	}
	if got := slotString(t, readPage(t, dev, 0), 0); got != "old" {
		t.Fatalf("slot0=%q after undo", got)
	}

	// Same log against a device where the steal never happened: undo must
	// not fire (the slot holds the winner's image, not the loser's).
	dev2 := NewMemDevice()
	res2, err := Recover(dev2, log)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Undone != 0 {
		t.Fatalf("undone=%d on a no-steal device", res2.Undone)
	}
	if got := slotString(t, readPage(t, dev2, 0), 0); got != "old" {
		t.Fatalf("slot0=%q", got)
	}
}

// TestRecoverWinnerDelete: a committed delete (empty after-image) removes the
// slot during redo.
func TestRecoverWinnerDelete(t *testing.T) {
	dev := NewMemDevice()
	log := []wal.Record{
		rec(1, upd(1, 0, 0, nil, []byte("gone soon"))),
		rec(2, wal.EncodeCommit(1)),
		rec(3, upd(2, 0, 0, []byte("gone soon"), nil)),
		rec(4, wal.EncodeCommit(2)),
	}
	if _, err := Recover(dev, log); err != nil {
		t.Fatal(err)
	}
	if _, ok := readPage(t, dev, 0).Slot(0); ok {
		t.Fatal("deleted slot survived recovery")
	}
}

// TestRecoverIdempotent: recovering an already-recovered device is a no-op
// and yields a bit-identical image.
func TestRecoverIdempotent(t *testing.T) {
	dev := NewMemDevice()
	log := []wal.Record{
		rec(1, upd(1, 0, 0, nil, []byte("a"))),
		rec(2, upd(1, 1, 0, nil, []byte("b"))),
		rec(3, wal.EncodeCommit(1)),
		rec(4, upd(2, 0, 1, nil, []byte("c"))),
		rec(5, wal.EncodeCommit(2)),
	}
	if _, err := Recover(dev, log); err != nil {
		t.Fatal(err)
	}
	img1 := dev.Image()
	res2, err := Recover(dev, log)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Redone != 0 || res2.Undone != 0 {
		t.Fatalf("second recovery redid work: redone=%d undone=%d", res2.Redone, res2.Undone)
	}
	img2 := dev.Image()
	if len(img1) != len(img2) {
		t.Fatalf("image page counts differ: %d vs %d", len(img1), len(img2))
	}
	for i := range img1 {
		if !bytes.Equal(img1[i], img2[i]) {
			t.Fatalf("page %d differs after re-recovery", i)
		}
	}
}

// TestRecoverSystemTxnAlwaysWins: SystemTxnID updates (catalog records) are
// replayed without a commit record.
func TestRecoverSystemTxnAlwaysWins(t *testing.T) {
	dev := NewMemDevice()
	log := []wal.Record{
		rec(1, upd(wal.SystemTxnID, 0, 0, nil, []byte("schema"))),
	}
	res, err := Recover(dev, log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Redone != 1 || len(res.Losers) != 0 {
		t.Fatalf("redone=%d losers=%v", res.Redone, res.Losers)
	}
	if got := slotString(t, readPage(t, dev, 0), 0); got != "schema" {
		t.Fatalf("slot0=%q", got)
	}
}

// TestRecoverUndecodableRecord: garbage behind a valid frame checksum is a
// hard error, not a silent skip.
func TestRecoverUndecodableRecord(t *testing.T) {
	if _, err := Recover(NewMemDevice(), []wal.Record{rec(1, []byte{0xFF, 0x00})}); err == nil {
		t.Fatal("undecodable record accepted")
	}
}
