package btree

import "bytes"

// A head is a key's first bytes packed in one word, so that a binary search
// compares contiguous integers and reads a key's bytes in the node's arena
// only when the heads cannot decide (the "poor man's normalized key" of
// Graefe and Larson, "B-tree indexes and CPU caches").
//
// Layout: bits 8..63 hold the key's first headBytes bytes, first byte in
// the top bits and missing bytes zero; bits 0..2 hold how many bytes that
// is; bit 3 (headWhole) is set when the head holds the whole key.
const (
	headBytes = 7
	headLen   = 0x7 // mask of the held byte count
	headWhole = 0x8 // the held bytes are the whole key
)

// keyHead returns key's head.
func keyHead(key []byte) uint64 {
	n := min(len(key), headBytes)
	h := uint64(n)
	for i, b := range key[:n] {
		h |= uint64(b) << (56 - 8*i)
	}
	if len(key) <= headBytes {
		h |= headWhole
	}
	return h
}

// headTie is headOrder's answer when the heads' common bytes are equal.
const headTie = 2

// headOrder compares the bytes two heads have in common: -1 or +1 when they
// differ, headTie when they are equal. It is small enough to inline into
// the binary searches' loop bodies.
func headOrder(a, b uint64) int {
	mask := ^uint64(0) << (64 - 8*min(a&headLen, b&headLen))
	x, y := a&mask, b&mask
	if x < y {
		return -1
	}
	if x > y {
		return 1
	}
	return headTie
}

// tieOrder settles a pair of heads whose common bytes are equal when one is
// whole and ends no later than the other: its key is a byte prefix of the
// other, so the keys are equal when both are whole and equally long, and
// otherwise the whole one is shorter and first. ok is false otherwise.
func tieOrder(a, b uint64) (c int, ok bool) {
	la, lb := a&headLen, b&headLen
	aw, bw := a&headWhole != 0, b&headWhole != 0
	switch {
	case aw && bw && la == lb:
		return 0, true
	case aw && la <= lb:
		return -1, true
	case bw && lb <= la:
		return 1, true
	}
	return 0, false
}

// compare orders two keys given their heads, reading the keys' bytes
// (bytes.Compare) only when the heads cannot decide.
func compare(ha uint64, a []byte, hb uint64, b []byte) int {
	if c := headOrder(ha, hb); c != headTie {
		return c
	}
	if c, ok := tieOrder(ha, hb); ok {
		return c
	}
	return bytes.Compare(a, b)
}

// hasPrefix reports whether key (head kh) begins with prefix (head ph). The
// heads decide when they differ inside both held lengths (no) or when a
// whole prefix head is covered by the key's (yes).
func hasPrefix(kh uint64, key []byte, ph uint64, prefix []byte) bool {
	if headOrder(kh, ph) != headTie {
		return false
	}
	if ph&headWhole != 0 && ph&headLen <= kh&headLen {
		return true
	}
	return bytes.HasPrefix(key, prefix)
}
