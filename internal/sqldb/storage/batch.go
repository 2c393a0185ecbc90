package storage

import (
	"bytes"

	"benchpress/internal/btree"
)

// BatchSize is the number of rows a batched scan hands to the executor at a
// time. 64 ids+pointers is one kilobyte of scratch — small enough to live in
// pooled executor state and stay cache-resident, large enough that the
// per-batch loop overhead (directory load, cursor bookkeeping, callback
// dispatch) is amortized over dozens of rows instead of paid per row.
const BatchSize = 64

// RowBatch is a fixed-capacity scratch buffer for segment-at-a-time batched
// scans. The executor owns and reuses one per scan level.
type RowBatch struct {
	IDs  [BatchSize]RowID
	Rows [BatchSize]*Row
	N    int
}

// ScanBatch fills b with up to BatchSize occupied slots of segment g,
// starting at local slot index cursor, and returns the cursor to resume
// from, or -1 when the segment is exhausted. Like ScanSegment it is
// latch-free against a directory snapshot: rows installed concurrently may
// or may not be visited, and their uncommitted versions are invisible to
// the scanning transaction either way.
func (t *Table) ScanBatch(g int, cursor int64, b *RowBatch) int64 {
	dir := *t.segs[g].dir.Load()
	b.N = 0
	for pi := cursor >> pageShift; pi < int64(len(dir)); pi++ {
		pg := dir[pi]
		si := int64(0)
		if pi == cursor>>pageShift {
			si = cursor & pageMask
		}
		base := pi << pageShift
		for ; si < pageSize; si++ {
			r := pg[si].Load()
			if r == nil {
				continue
			}
			b.IDs[b.N] = makeRowID(int64(g), base+si)
			b.Rows[b.N] = r
			b.N++
			if b.N == BatchSize {
				return base + si + 1
			}
		}
	}
	return -1
}

// AppendPrimaryRange materializes the index entries with from <= pk <= to
// into buf (reusing its capacity) and returns the extended slice, in key
// order, or reversed when desc is set. Bounds are encoded keys
// (sqlval.AppendKey); nil bounds are open, and bounds may be key prefixes
// padded with sqlval.Top() to form inclusive upper bounds.
//
// max > 0 stops after max entries, and a non-nil after resumes the scan
// strictly past that key in scan order, so a caller streams a long range in
// chunks by passing the last key of the previous chunk: keys are unique per
// tree, and an entry's key is the tree's immutable copy, so it stays a
// valid cursor after the latch is released. Entries are collected under the
// index read latch and the latch is released before return, so callers may
// freely re-enter the table while consuming a chunk.
func (t *Table) AppendPrimaryRange(buf []IndexEntry, from, to, after []byte, desc bool, max int) []IndexEntry {
	if t.primary == nil {
		return buf
	}
	return appendRange(t.primary, buf, from, to, after, desc, max)
}

// AppendSecondaryRange is AppendPrimaryRange over a secondary index's
// physical keys (indexed columns plus a trailing row id). Callers build
// prefix bounds directly: a bare prefix is an inclusive lower bound, and a
// prefix extended with sqlval.Top() is an inclusive upper bound.
func (t *Table) AppendSecondaryRange(buf []IndexEntry, ord int, from, to, after []byte, desc bool, max int) []IndexEntry {
	return appendRange(t.secondaryList()[ord].tree, buf, from, to, after, desc, max)
}

// appendRange is the one range walk behind both Append*Range entry points.
func appendRange(tree *btree.Latched, buf []IndexEntry, from, to, after []byte, desc bool, max int) []IndexEntry {
	start := len(buf)
	skip := after != nil // the walk starts at after itself if it is still there
	collect := func(key []byte, id int64) bool {
		if skip {
			skip = false
			if bytes.Equal(key, after) {
				return true
			}
		}
		buf = append(buf, IndexEntry{Key: key, ID: id})
		return max <= 0 || len(buf)-start < max
	}
	tree.RLock()
	if desc {
		hi := to
		if after != nil {
			hi = after
		}
		tree.DescendRange(hi, from, collect)
	} else {
		lo := from
		if after != nil {
			lo = after
		}
		tree.AscendRange(lo, to, collect)
	}
	tree.RUnlock()
	return buf
}
