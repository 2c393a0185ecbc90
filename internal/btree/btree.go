// Package btree implements an in-memory B+tree over byte-string keys.
//
// A key is the order-preserving encoding of a composite SQL key
// (sqlval.AppendKey), ordered by bytes.Compare, and maps to one int64 (a row
// id in the storage layer). Non-unique secondary indexes append the row id
// to the key, which keeps every key unique while preserving order on the
// indexed prefix.
//
// Every node keeps its keys' bytes in one pointer-free arena, and beside
// them each key's head: its first bytes in one word (head.go). Searches
// compare heads and read a key's bytes only when two heads tie, so a lookup
// over short keys reads one contiguous []uint64 per node.
//
// The tree is NOT internally synchronized; the storage layer guards each
// index with its own latch (Latched). Keys the tree hands out outlive the
// latch (see keys).
package btree

import "slices"

// degree is the maximum number of children of an interior node. 32 keeps
// a node's heads within four cache lines while holding tree height at 4-5
// for the table sizes the benchmarks load.
const degree = 32

// keys is a node's sorted keys: their bytes in one arena, and per key its
// span in the arena and its head. A node thus holds three pointer-free
// arrays however many columns its keys have.
//
// The arena is append-only: a byte once written never changes, and a key
// that needs room the arena lacks goes into a fresh arena with the live
// keys (compact), leaving the old one to whoever still holds keys from it.
// So a key handed out (at) stays valid and unchanged after the caller's
// latch is released, whatever the tree does next.
type keys struct {
	arena []byte
	spans []uint64 // spans[i] = start<<32 | end of key i in arena
	heads []uint64 // heads[i] is keyHead(key i)
}

// at returns key i, capped so that appending to it cannot reach the arena.
func (k *keys) at(i int) []byte {
	s := k.spans[i]
	lo, hi := s>>32, s&0xFFFFFFFF
	return k.arena[lo:hi:hi]
}

// insertKey copies key, with head h, into position i.
func (k *keys) insertKey(i int, key []byte, h uint64) {
	if len(k.arena)+len(key) > cap(k.arena) {
		k.compact(len(k.arena) + len(key))
	}
	lo := len(k.arena)
	k.arena = append(k.arena, key...)
	k.spans = slices.Insert(k.spans, i, uint64(lo)<<32|uint64(len(k.arena)))
	k.heads = slices.Insert(k.heads, i, h)
}

// removeKey drops key i; its bytes stay in the arena until it is compacted.
func (k *keys) removeKey(i int) {
	k.spans = slices.Delete(k.spans, i, i+1)
	k.heads = slices.Delete(k.heads, i, i+1)
}

// compact moves the live keys, in order, into a fresh arena with room for
// extra more bytes.
func (k *keys) compact(extra int) {
	live := 0
	for _, s := range k.spans {
		live += int(s&0xFFFFFFFF - s>>32)
	}
	a := make([]byte, 0, live+extra)
	for i := range k.spans {
		lo := len(a)
		a = append(a, k.at(i)...)
		k.spans[i] = uint64(lo)<<32 | uint64(len(a))
	}
	k.arena = a
}

// split cuts k to its first cut keys and returns the keys from from on;
// both end up in arenas of their exact size.
func (k *keys) split(cut, from int) keys {
	r := keys{
		arena: k.arena,
		spans: append([]uint64(nil), k.spans[from:]...),
		heads: append([]uint64(nil), k.heads[from:]...),
	}
	r.compact(0)
	k.spans = k.spans[:cut:cut]
	k.heads = k.heads[:cut:cut]
	k.compact(0)
	return r
}

// lowerBound returns the index of the first key >= key (head h) with bias
// 0, or of the first key > key with bias 1: interior nodes route with bias
// 1, key i being the minimum of child i+1.
func (k *keys) lowerBound(h uint64, key []byte, bias int) int {
	lo, hi := 0, len(k.heads)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := headOrder(k.heads[mid], h)
		if c == headTie {
			c = compare(k.heads[mid], k.at(mid), h, key)
		}
		if c < bias {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cmp compares key i with key (head h).
func (k *keys) cmp(i int, h uint64, key []byte) int {
	return compare(k.heads[i], k.at(i), h, key)
}

type leaf struct {
	keys
	vals []int64
	next *leaf
	prev *leaf
}

type interior struct {
	keys     // key i is the smallest key reachable under children[i+1]
	children []node
}

type node interface{ isNode() }

func (*leaf) isNode()     {}
func (*interior) isNode() {}

// Tree is an in-memory B+tree.
type Tree struct {
	root  node
	size  int
	first *leaf // leftmost leaf, for full ascending scans
	last  *leaf // rightmost leaf, for descending scans
}

// New returns an empty tree.
func New() *Tree {
	l := &leaf{}
	return &Tree{root: l, first: l, last: l}
}

// Len reports the number of entries in the tree.
func (t *Tree) Len() int { return t.size }

// Get returns the payload stored under key, if present.
func (t *Tree) Get(key []byte) (int64, bool) {
	h := keyHead(key)
	l, i := t.findLeaf(h, key)
	if i < len(l.heads) && l.cmp(i, h, key) == 0 {
		return l.vals[i], true
	}
	return 0, false
}

// Insert stores val under key, replacing any previous payload. It reports
// whether the key was newly inserted (false means replaced). The tree keeps
// a copy of key's bytes, never key itself.
func (t *Tree) Insert(key []byte, val int64) bool {
	newChild, splitKey, splitHead, inserted := t.insert(t.root, keyHead(key), key, val)
	if newChild != nil {
		root := &interior{children: []node{t.root, newChild}}
		root.insertKey(0, splitKey, splitHead)
		t.root = root
	}
	if inserted {
		t.size++
	}
	return inserted
}

// Delete removes key from the tree, reporting whether it was present.
// Underfull nodes are tolerated (no rebalancing): workloads here are
// insert-heavy and deletes are comparatively rare, so the tree trades
// worst-case density for simpler, faster common paths. Empty leaves are
// unlinked from the scan chain lazily during iteration.
func (t *Tree) Delete(key []byte) bool {
	h := keyHead(key)
	l, i := t.findLeaf(h, key)
	if i >= len(l.heads) || l.cmp(i, h, key) != 0 {
		return false
	}
	l.removeKey(i)
	l.vals = slices.Delete(l.vals, i, i+1)
	t.size--
	return true
}

// AscendRange calls fn for each entry with from <= key <= to in ascending
// order. A nil from starts at the smallest key; a nil to ends at the largest.
// Iteration stops early when fn returns false.
func (t *Tree) AscendRange(from, to []byte, fn func(key []byte, val int64) bool) {
	var l *leaf
	var i int
	if from == nil {
		l, i = t.first, 0
	} else {
		l, i = t.findLeaf(keyHead(from), from)
	}
	th := keyHead(to)
	for l != nil {
		for ; i < len(l.heads); i++ {
			if to != nil && l.cmp(i, th, to) > 0 {
				return
			}
			if !fn(l.at(i), l.vals[i]) {
				return
			}
		}
		l = l.next
		i = 0
	}
}

// DescendRange calls fn for each entry with from >= key >= to in descending
// order. A nil from starts at the largest key; a nil to ends at the smallest.
func (t *Tree) DescendRange(from, to []byte, fn func(key []byte, val int64) bool) {
	var l *leaf
	var i int
	if from == nil {
		l = t.last
		i = len(l.heads) - 1
	} else {
		fh := keyHead(from)
		l, i = t.findLeaf(fh, from)
		// findLeaf positions at the first key >= from; step back to the
		// last key <= from.
		if i >= len(l.heads) || l.cmp(i, fh, from) > 0 {
			i--
		}
	}
	th := keyHead(to)
	for l != nil {
		for ; i >= 0; i-- {
			if i >= len(l.heads) {
				continue
			}
			if to != nil && l.cmp(i, th, to) < 0 {
				return
			}
			if !fn(l.at(i), l.vals[i]) {
				return
			}
		}
		l = l.prev
		if l != nil {
			i = len(l.heads) - 1
		}
	}
}

// AscendPrefix calls fn for each entry whose key begins with prefix, in
// ascending order. Useful for non-unique indexes where the physical key is
// (indexed columns..., rowid): a column prefix is a byte prefix.
func (t *Tree) AscendPrefix(prefix []byte, fn func(key []byte, val int64) bool) {
	ph := keyHead(prefix)
	l, i := t.findLeaf(ph, prefix)
	for l != nil {
		for ; i < len(l.heads); i++ {
			if !hasPrefix(l.heads[i], l.at(i), ph, prefix) {
				return
			}
			if !fn(l.at(i), l.vals[i]) {
				return
			}
		}
		l = l.next
		i = 0
	}
}

// findLeaf walks to the leaf that would contain key and returns it together
// with the index of the first entry >= key within that leaf.
func (t *Tree) findLeaf(h uint64, key []byte) (*leaf, int) {
	n := t.root
	for {
		switch x := n.(type) {
		case *interior:
			n = x.children[x.lowerBound(h, key, 1)]
		case *leaf:
			return x, x.lowerBound(h, key, 0)
		}
	}
}

// insert recursively inserts key (head h) into n. When n splits, it returns
// the new right sibling and the key separating the halves, with its head.
func (t *Tree) insert(n node, h uint64, key []byte, val int64) (split node, splitKey []byte, splitHead uint64, inserted bool) {
	switch x := n.(type) {
	case *leaf:
		i := x.lowerBound(h, key, 0)
		if i < len(x.heads) && x.cmp(i, h, key) == 0 {
			x.vals[i] = val
			return nil, nil, 0, false
		}
		x.insertKey(i, key, h)
		x.vals = slices.Insert(x.vals, i, val)
		if len(x.heads) < degree {
			return nil, nil, 0, true
		}
		// Split the leaf in half.
		mid := len(x.heads) / 2
		right := &leaf{
			keys: x.split(mid, mid),
			vals: append([]int64(nil), x.vals[mid:]...),
			next: x.next,
			prev: x,
		}
		if x.next != nil {
			x.next.prev = right
		} else {
			t.last = right
		}
		x.vals = x.vals[:mid:mid]
		x.next = right
		return right, right.at(0), right.heads[0], true
	case *interior:
		i := x.lowerBound(h, key, 1)
		child, childKey, childHead, ins := t.insert(x.children[i], h, key, val)
		if child == nil {
			return nil, nil, 0, ins
		}
		x.insertKey(i, childKey, childHead)
		x.children = slices.Insert(x.children, i+1, child)
		if len(x.children) <= degree {
			return nil, nil, 0, ins
		}
		// Split the interior node; the middle key moves up. It stays valid
		// across the split: split compacts into fresh arenas.
		mid := len(x.heads) / 2
		upKey, upHead := x.at(mid), x.heads[mid]
		right := &interior{
			keys:     x.split(mid, mid+1),
			children: append([]node(nil), x.children[mid+1:]...),
		}
		x.children = x.children[: mid+1 : mid+1]
		return right, upKey, upHead, ins
	}
	return nil, nil, 0, false
}
