package heap

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"benchpress/internal/wal"
)

// Recovery: the ARIES three-pass restart protocol over physical slot-image
// records.
//
//   - Analysis scans the log for the last fuzzy checkpoint, splits
//     transactions into winners (commit record present) and losers, and
//     collects the dirty page table.
//   - Redo repeats history for winner updates from the redo point (the
//     checkpoint's minimum recLSN), guarded by page LSNs so it is
//     idempotent. Any torn page found on the device is reformatted and the
//     redo point falls back to the log start, because the tear destroyed
//     durable state older than the checkpoint bound.
//   - Undo walks loser updates in reverse LSN order restoring before-images.
//     The engine applies page changes only after the commit record is
//     durable (a no-steal policy for uncommitted data), so undo finds
//     nothing to revert in practice; it stays defensive — a before-image is
//     restored only when the slot still holds the loser's after-image.
//
// The checkpoint record carries only the dirty page table, though other
// transactions may have logged updates and not yet committed when it is
// taken. Analysis reads the whole log (it is never truncated), so winners
// and losers come from commit records alone; and the engine lists every
// logged-but-unapplied update in the table at its own LSN, so the redo point
// never passes a change that a page may still lack.

// RecoveryResult summarizes one restart.
type RecoveryResult struct {
	// Winners holds committed transaction ids in commit-record LSN order.
	Winners []uint64
	// Losers holds transaction ids with updates but no commit record.
	Losers []uint64
	// MaxLSN is the last complete record's LSN; reopen the log with
	// StartSeq=MaxLSN to continue the sequence.
	MaxLSN uint64
	// MaxTxnID is the highest transaction id appearing in the log. The
	// engine restarts its id source above it: a post-restart transaction
	// that reused the id of a pre-crash committed one would have its
	// updates replayed as committed by the next recovery even if it lost.
	MaxTxnID uint64
	// CleanWALLen is the byte length of the log's intact prefix; the
	// caller truncates the physical log file to it before appending.
	CleanWALLen int
	// TornPages lists pages whose device image failed verification and
	// were rebuilt from the log.
	TornPages []uint32
	// Redone and Undone count applied redo and undo actions.
	Redone, Undone int
	// Updates holds every winner update in LSN order; the engine replays
	// them to rebuild in-memory state (tables, free-space map) without a
	// second log scan.
	Updates []RecoveredUpdate
}

// RecoveredUpdate is one winner update as recovery applied it.
type RecoveredUpdate struct {
	LSN    uint64
	TxnID  uint64
	PageID uint32
	Slot   uint16
	After  []byte // nil for deletes
}

// Recover runs the three passes against dev using the decoded log records
// and writes every touched page back, sealed and synced. It returns hard
// errors only for states a crash cannot produce (undecodable record bodies
// behind valid frame checksums, device write failures).
func Recover(dev Device, records []wal.Record) (*RecoveryResult, error) {
	res := &RecoveryResult{}

	// Decode every record once; frame checksums already vouched for the
	// bytes, so a decode failure is corruption, not a tear.
	type logRec struct {
		lsn uint64
		rec wal.ARIESRecord
	}
	decoded := make([]logRec, 0, len(records))
	for _, r := range records {
		ar, err := wal.DecodeARIES(r.Payload)
		if err != nil {
			return nil, fmt.Errorf("heap: recovery: record %d: %w", r.Seq, err)
		}
		decoded = append(decoded, logRec{lsn: r.Seq, rec: ar})
		res.MaxLSN = r.Seq
	}

	// --- Analysis ---
	committed := map[uint64]bool{wal.SystemTxnID: true}
	seen := map[uint64]bool{}
	var ckptLSN uint64
	var ckpt wal.CheckpointRec
	for _, lr := range decoded {
		switch lr.rec.Kind {
		case wal.KindUpdate:
			seen[lr.rec.Update.TxnID] = true
			if lr.rec.Update.TxnID > res.MaxTxnID {
				res.MaxTxnID = lr.rec.Update.TxnID
			}
		case wal.KindCommit:
			if !committed[lr.rec.Commit] {
				committed[lr.rec.Commit] = true
				res.Winners = append(res.Winners, lr.rec.Commit)
			}
			if lr.rec.Commit > res.MaxTxnID {
				res.MaxTxnID = lr.rec.Commit
			}
		case wal.KindCheckpoint:
			ckptLSN = lr.lsn
			ckpt = lr.rec.Checkpoint
		}
	}
	for id := range seen {
		if !committed[id] {
			res.Losers = append(res.Losers, id)
		}
	}
	sort.Slice(res.Losers, func(i, j int) bool { return res.Losers[i] < res.Losers[j] })

	// The redo point: the checkpoint's minimum recLSN (pages dirtied before
	// it may still miss durable updates from that point on). Everything
	// older is on disk — unless a torn page says otherwise below.
	redoLSN := ckptLSN
	for _, d := range ckpt.Dirty {
		if d.RecLSN < redoLSN {
			redoLSN = d.RecLSN
		}
	}

	// Page cache for the passes: load on demand, verify, reformat tears.
	devPages, err := dev.Pages()
	if err != nil {
		return nil, err
	}
	pages := map[uint32][]byte{}
	load := func(id uint32) (Page, error) {
		if b, ok := pages[id]; ok {
			return AsPage(b), nil
		}
		b := make([]byte, PageSize)
		if id >= devPages {
			pages[id] = b
			return Format(b, id), nil
		}
		switch err := dev.ReadPage(id, b); {
		case err == nil:
			if verr := Verify(b); verr != nil {
				res.TornPages = append(res.TornPages, id)
				Format(b, id)
			}
		case isMissing(err):
			Format(b, id)
		default:
			return Page{}, err
		}
		pages[id] = b
		return AsPage(b), nil
	}

	// A torn page lost durable history from before the checkpoint bound,
	// so probe every page the log might redo into before fixing the redo
	// start; any tear forces a full-log replay (the log is never truncated
	// past its last recovery, so the history is there).
	for _, lr := range decoded {
		if lr.rec.Kind == wal.KindUpdate && committed[lr.rec.Update.TxnID] {
			if _, err := load(lr.rec.Update.PageID); err != nil {
				return nil, err
			}
		}
	}
	start := redoLSN
	if len(res.TornPages) > 0 {
		start = 0
	}

	// --- Redo (repeat history for winners, page-LSN guarded) ---
	for _, lr := range decoded {
		if lr.rec.Kind != wal.KindUpdate || lr.lsn < start {
			continue
		}
		u := lr.rec.Update
		if !committed[u.TxnID] {
			continue
		}
		pg, err := load(u.PageID)
		if err != nil {
			return nil, err
		}
		if pg.LSN() >= lr.lsn {
			continue // already on disk
		}
		if err := pg.Put(int(u.Slot), u.After); err != nil {
			return nil, fmt.Errorf("heap: redo LSN %d page %d slot %d: %w", lr.lsn, u.PageID, u.Slot, err)
		}
		pg.SetLSN(lr.lsn)
		res.Redone++
	}

	// --- Undo (losers in reverse LSN order, defensive) ---
	for i := len(decoded) - 1; i >= 0; i-- {
		lr := decoded[i]
		if lr.rec.Kind != wal.KindUpdate || committed[lr.rec.Update.TxnID] {
			continue
		}
		u := lr.rec.Update
		pg, err := load(u.PageID)
		if err != nil {
			return nil, err
		}
		cur, ok := pg.Slot(int(u.Slot))
		present := ok && bytes.Equal(cur, u.After)
		if len(u.After) == 0 {
			present = !ok // a loser delete "took": the slot is gone
		}
		if pg.LSN() < lr.lsn || !present {
			continue // the effect never reached a page
		}
		if err := pg.Put(int(u.Slot), u.Before); err != nil {
			return nil, fmt.Errorf("heap: undo LSN %d page %d slot %d: %w", lr.lsn, u.PageID, u.Slot, err)
		}
		res.Undone++
	}

	// Materialize the winner updates for the engine's state rebuild.
	for _, lr := range decoded {
		if lr.rec.Kind != wal.KindUpdate || !committed[lr.rec.Update.TxnID] {
			continue
		}
		u := lr.rec.Update
		res.Updates = append(res.Updates, RecoveredUpdate{
			LSN: lr.lsn, TxnID: u.TxnID, PageID: u.PageID, Slot: u.Slot, After: u.After,
		})
	}

	// Write back every touched page sealed, in page order, and sync: the
	// recovered image is fully durable before the engine accepts traffic.
	ids := make([]uint32, 0, len(pages))
	for id := range pages {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		Seal(pages[id])
		if err := dev.WritePage(id, pages[id]); err != nil {
			return nil, err
		}
	}
	if err := dev.Sync(); err != nil {
		return nil, err
	}
	sort.Slice(res.TornPages, func(i, j int) bool { return res.TornPages[i] < res.TornPages[j] })
	return res, nil
}

func isMissing(err error) bool { return errors.Is(err, ErrPageMissing) }
