// Package heap implements the disk-resident storage layer: a slotted-page
// heap file with a checksummed page codec, a pin/unpin buffer pool with
// clock-LRU eviction, and ARIES-style three-pass recovery over the WAL's
// physical slot-image records.
//
// A page is a fixed-size byte array:
//
//	[ header 24B ][ slot directory, 4B/slot, growing up ] ... [ records, growing down ]
//
// Header layout (big-endian):
//
//	0:2   magic
//	2:4   flags (reserved, zero)
//	4:8   page id
//	8:16  page LSN — the LSN of the last update applied to the page
//	16:18 slot count
//	18:20 free pointer — offset of the lowest record byte
//	20:24 CRC-32C (Castagnoli) checksum over every other byte of the page
//
// The checksum is stamped by Seal immediately before a page goes to the
// device, and verified by Verify when it comes back; a failed Verify is how
// recovery detects a torn (partially written) page. Slot directory entries
// are (offset u16, length u16); offset zero marks a dead slot. Records never
// move except during compaction, which only reshuffles within the page.
//
// Every accessor bounds-checks against the raw bytes and returns an error or
// a false ok instead of panicking: recovery feeds pages read straight off a
// crashed device, and the fuzz harness feeds arbitrary garbage.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"benchpress/internal/wal"
)

// PageSize is the fixed on-device page size.
const PageSize = 4096

// PageCapacity is the record space of a freshly formatted page (PageSize
// minus the header); allocators bound record sizes and fresh-page free space
// with it.
const PageCapacity = PageSize - headerSize

const (
	pageMagic  = 0x50C5 // changes with the page format; an older page fails Verify
	headerSize = 24
	slotSize   = 4

	offMagic    = 0
	offFlags    = 2
	offPageID   = 4
	offLSN      = 8
	offSlots    = 16
	offFreePtr  = 18
	offChecksum = 20
)

// ErrPageFull is returned when a record cannot fit even after compaction.
var ErrPageFull = errors.New("heap: page full")

// ErrBadPage reports a page image whose geometry is inconsistent — a
// checksum mismatch, bad magic, or slot metadata pointing outside the page.
var ErrBadPage = errors.New("heap: corrupt page")

// Page is a view over one PageSize byte buffer. The zero value is invalid;
// wrap a buffer with AsPage after Format or a verified device read.
type Page struct {
	b []byte
}

// AsPage wraps a PageSize buffer. It does not validate contents; use Verify.
func AsPage(b []byte) Page { return Page{b: b} }

// Format initializes b as an empty page with the given id.
func Format(b []byte, id uint32) Page {
	for i := range b {
		b[i] = 0
	}
	binary.BigEndian.PutUint16(b[offMagic:], pageMagic)
	binary.BigEndian.PutUint32(b[offPageID:], id)
	binary.BigEndian.PutUint16(b[offFreePtr:], PageSize)
	return Page{b: b}
}

// checksum computes the page checksum over every byte but its own field.
func checksum(b []byte) uint32 {
	return crc32.Update(crc32.Checksum(b[:offChecksum], wal.Castagnoli), wal.Castagnoli, b[offChecksum+4:])
}

// Seal stamps the page checksum; call immediately before a device write.
func Seal(b []byte) {
	binary.BigEndian.PutUint32(b[offChecksum:], checksum(b))
}

// Verify checks length, magic, checksum, and slot-directory geometry. A page
// that passes Verify can be walked with Slot without further checks failing.
func Verify(b []byte) error {
	if len(b) != PageSize {
		return fmt.Errorf("%w: %d bytes, want %d", ErrBadPage, len(b), PageSize)
	}
	if binary.BigEndian.Uint16(b[offMagic:]) != pageMagic {
		return fmt.Errorf("%w: bad magic 0x%04x", ErrBadPage, binary.BigEndian.Uint16(b[offMagic:]))
	}
	if got, want := binary.BigEndian.Uint32(b[offChecksum:]), checksum(b); got != want {
		return fmt.Errorf("%w: checksum 0x%08x, want 0x%08x (torn write)", ErrBadPage, got, want)
	}
	p := Page{b: b}
	n := p.NumSlots()
	free := int(binary.BigEndian.Uint16(b[offFreePtr:]))
	if dirEnd := headerSize + n*slotSize; dirEnd > free || free > PageSize {
		return fmt.Errorf("%w: %d slots overlap free pointer %d", ErrBadPage, n, free)
	}
	for i := 0; i < n; i++ {
		off, ln := p.slotEntry(i)
		if off == 0 {
			continue
		}
		if int(off) < free || int(off)+int(ln) > PageSize {
			return fmt.Errorf("%w: slot %d spans [%d,%d) outside records area [%d,%d)",
				ErrBadPage, i, off, int(off)+int(ln), free, PageSize)
		}
		if ln == 0 {
			// Zero-length live records are unrepresentable: Put treats an
			// empty record as a delete.
			return fmt.Errorf("%w: slot %d live with zero length", ErrBadPage, i)
		}
	}
	return nil
}

// ID returns the page id stored in the header.
func (p Page) ID() uint32 { return binary.BigEndian.Uint32(p.b[offPageID:]) }

// LSN returns the page LSN.
func (p Page) LSN() uint64 { return binary.BigEndian.Uint64(p.b[offLSN:]) }

// SetLSN stamps the page LSN.
func (p Page) SetLSN(lsn uint64) { binary.BigEndian.PutUint64(p.b[offLSN:], lsn) }

// NumSlots returns the slot directory length (live and dead slots).
func (p Page) NumSlots() int { return int(binary.BigEndian.Uint16(p.b[offSlots:])) }

func (p Page) slotEntry(i int) (off, ln uint16) {
	base := headerSize + i*slotSize
	return binary.BigEndian.Uint16(p.b[base:]), binary.BigEndian.Uint16(p.b[base+2:])
}

func (p Page) setSlotEntry(i int, off, ln uint16) {
	base := headerSize + i*slotSize
	binary.BigEndian.PutUint16(p.b[base:], off)
	binary.BigEndian.PutUint16(p.b[base+2:], ln)
}

func (p Page) freePtr() int      { return int(binary.BigEndian.Uint16(p.b[offFreePtr:])) }
func (p Page) setFreePtr(v int)  { binary.BigEndian.PutUint16(p.b[offFreePtr:], uint16(v)) }
func (p Page) setNumSlots(n int) { binary.BigEndian.PutUint16(p.b[offSlots:], uint16(n)) }

// Slot returns the record stored at slot i. ok is false for dead slots,
// out-of-range indexes, and geometry that points outside the page (possible
// only on unverified images). The returned bytes alias the page buffer.
func (p Page) Slot(i int) (rec []byte, ok bool) {
	if i < 0 || i >= p.NumSlots() {
		return nil, false
	}
	off, ln := p.slotEntry(i)
	if off == 0 {
		return nil, false
	}
	if int(off) < headerSize || int(off)+int(ln) > len(p.b) {
		return nil, false
	}
	return p.b[off : int(off)+int(ln)], true
}

// FreeSpace returns the bytes available for new records counting compactable
// garbage, excluding the directory growth a fresh slot would need (the
// allocator budgets slotSize per insert on top of the record length).
func (p Page) FreeSpace() int {
	dirEnd := headerSize + p.NumSlots()*slotSize
	return PageSize - dirEnd - p.liveBytes(-1)
}

// SlotDirSize is the per-slot directory overhead an insert adds when it
// extends the directory; allocators budget RecordOverhead = len(rec) +
// SlotDirSize per fresh slot.
const SlotDirSize = slotSize

// liveBytes sums live record lengths (compaction target size).
func (p Page) liveBytes(excludeSlot int) int {
	total := 0
	for i, n := 0, p.NumSlots(); i < n; i++ {
		if i == excludeSlot {
			continue
		}
		if _, ln := p.slotEntry(i); ln > 0 {
			if off, _ := p.slotEntry(i); off != 0 {
				total += int(ln)
			}
		}
	}
	return total
}

// FreeFor reports whether a record of n bytes can be placed at slot, counting
// the directory growth a fresh slot needs and the space reclaimable by
// compaction. Replacing an existing record credits its current length.
func (p Page) FreeFor(slot, n int) bool {
	dirSlots := p.NumSlots()
	if slot >= dirSlots {
		dirSlots = slot + 1
	}
	dirEnd := headerSize + dirSlots*slotSize
	return dirEnd+p.liveBytes(slot)+n <= PageSize
}

// Put stores rec at slot i, growing the slot directory as needed (skipped
// indexes become dead slots) and compacting when the contiguous gap is too
// small. An empty rec deletes the slot. Put is the redo primitive: it must
// be applicable to any verified page at any slot index, so recovery can
// replay update records idempotently.
func (p Page) Put(i int, rec []byte) error {
	if i < 0 || i > 0xFFFF-1 {
		return fmt.Errorf("heap: slot index %d out of range", i)
	}
	if len(rec) == 0 {
		p.Delete(i)
		return nil
	}
	if !p.FreeFor(i, len(rec)) {
		return fmt.Errorf("%w: %d-byte record at slot %d", ErrPageFull, len(rec), i)
	}
	// Kill the old image first; its bytes become garbage that compaction
	// reclaims, and FreeFor already credited them.
	if i < p.NumSlots() {
		p.setSlotEntry(i, 0, 0)
	}
	// Directory growth may cross the free pointer into record bytes, so
	// compact before zeroing the new entries, not after.
	if n := p.NumSlots(); i >= n {
		if headerSize+(i+1)*slotSize > p.freePtr() {
			p.compact()
		}
		for j := n; j <= i; j++ {
			p.setSlotEntry(j, 0, 0)
		}
		p.setNumSlots(i + 1)
	}
	dirEnd := headerSize + p.NumSlots()*slotSize
	if p.freePtr()-dirEnd < len(rec) {
		p.compact()
	}
	off := p.freePtr() - len(rec)
	copy(p.b[off:], rec)
	p.setFreePtr(off)
	p.setSlotEntry(i, uint16(off), uint16(len(rec)))
	return nil
}

// Delete kills slot i; its bytes are reclaimed by a later compaction. The
// slot index remains occupied (dead) so redo's slot addressing stays stable.
func (p Page) Delete(i int) {
	if i < 0 || i >= p.NumSlots() {
		return
	}
	p.setSlotEntry(i, 0, 0)
}

// compact rewrites live records contiguously at the page tail, reclaiming
// garbage left by deletes and replacements. Slot order is preserved.
func (p Page) compact() {
	var scratch [PageSize]byte
	w := PageSize
	n := p.NumSlots()
	type placed struct{ off, ln uint16 }
	entries := make([]placed, n)
	for i := 0; i < n; i++ {
		off, ln := p.slotEntry(i)
		if off == 0 {
			continue
		}
		w -= int(ln)
		copy(scratch[w:], p.b[off:int(off)+int(ln)])
		entries[i] = placed{off: uint16(w), ln: ln}
	}
	copy(p.b[w:], scratch[w:])
	for i := 0; i < n; i++ {
		if e := entries[i]; e.off != 0 {
			p.setSlotEntry(i, e.off, e.ln)
		}
	}
	p.setFreePtr(w)
}
