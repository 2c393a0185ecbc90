// Package btree implements an in-memory B+tree keyed by composite SQL values.
//
// The tree maps a composite key ([]sqlval.Value) to a single int64 payload
// (a row id in the storage layer). Non-unique secondary indexes achieve set
// semantics by appending the row id to the key, which keeps every key unique
// while preserving order on the indexed prefix.
//
// Every node keeps, beside its keys, each key's head: an 8-byte
// order-preserving prefix (head.go). Searches compare heads and fall back to
// sqlval.CompareRows only when two heads tie, so a lookup over integer keys
// reads one contiguous []uint64 per node instead of a key slice per probe.
//
// The tree is NOT internally synchronized; the storage layer guards each
// index with its own mutex so that lock granularity stays under the control
// of the concurrency-control engine.
package btree

import (
	"benchpress/internal/sqlval"
)

// degree is the maximum number of children of an interior node. 32 keeps
// nodes within a couple of cache lines of Value headers while holding tree
// height at 4-5 for the table sizes the benchmarks load.
const degree = 32

// Key is a composite index key.
type Key = []sqlval.Value

type leaf struct {
	keys  [][]sqlval.Value
	heads []uint64 // heads[i] is keyHead(keys[i])
	vals  []int64
	next  *leaf
	prev  *leaf
}

type interior struct {
	// keys[i] is the smallest key reachable under children[i+1].
	keys     [][]sqlval.Value
	heads    []uint64 // heads[i] is keyHead(keys[i])
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
func (t *Tree) Get(key Key) (int64, bool) {
	h := keyHead(key)
	l, i := t.findLeaf(h, key)
	if i < len(l.keys) && compare(l.heads[i], l.keys[i], h, key) == 0 {
		return l.vals[i], true
	}
	return 0, false
}

// Insert stores val under key, replacing any previous payload. It reports
// whether the key was newly inserted (false means replaced).
func (t *Tree) Insert(key Key, val int64) bool {
	newChild, splitKey, splitHead, inserted := t.insert(t.root, keyHead(key), key, val)
	if newChild != nil {
		t.root = &interior{
			keys:     [][]sqlval.Value{splitKey},
			heads:    []uint64{splitHead},
			children: []node{t.root, newChild},
		}
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
func (t *Tree) Delete(key Key) bool {
	h := keyHead(key)
	l, i := t.findLeaf(h, key)
	if i >= len(l.keys) || compare(l.heads[i], l.keys[i], h, key) != 0 {
		return false
	}
	l.keys = append(l.keys[:i], l.keys[i+1:]...)
	l.heads = append(l.heads[:i], l.heads[i+1:]...)
	l.vals = append(l.vals[:i], l.vals[i+1:]...)
	t.size--
	return true
}

// AscendRange calls fn for each entry with from <= key <= to in ascending
// order. A nil from starts at the smallest key; a nil to ends at the largest.
// Iteration stops early when fn returns false.
func (t *Tree) AscendRange(from, to Key, fn func(key Key, val int64) bool) {
	var l *leaf
	var i int
	if from == nil {
		l, i = t.first, 0
	} else {
		l, i = t.findLeaf(keyHead(from), from)
	}
	th := keyHead(to)
	for l != nil {
		for ; i < len(l.keys); i++ {
			if to != nil && compare(l.heads[i], l.keys[i], th, to) > 0 {
				return
			}
			if !fn(l.keys[i], l.vals[i]) {
				return
			}
		}
		l = l.next
		i = 0
	}
}

// DescendRange calls fn for each entry with from >= key >= to in descending
// order. A nil from starts at the largest key; a nil to ends at the smallest.
func (t *Tree) DescendRange(from, to Key, fn func(key Key, val int64) bool) {
	var l *leaf
	var i int
	if from == nil {
		l = t.last
		i = len(l.keys) - 1
	} else {
		fh := keyHead(from)
		l, i = t.findLeaf(fh, from)
		// findLeaf positions at the first key >= from; step back to the
		// last key <= from.
		if i >= len(l.keys) || compare(l.heads[i], l.keys[i], fh, from) > 0 {
			i--
		}
	}
	th := keyHead(to)
	for l != nil {
		for ; i >= 0; i-- {
			if i >= len(l.keys) {
				continue
			}
			if to != nil && compare(l.heads[i], l.keys[i], th, to) < 0 {
				return
			}
			if !fn(l.keys[i], l.vals[i]) {
				return
			}
		}
		l = l.prev
		if l != nil {
			i = len(l.keys) - 1
		}
	}
}

// AscendPrefix calls fn for each entry whose key begins with prefix, in
// ascending order. Useful for non-unique indexes where the physical key is
// (indexed columns..., rowid).
func (t *Tree) AscendPrefix(prefix Key, fn func(key Key, val int64) bool) {
	ph := keyHead(prefix)
	l, i := t.findLeaf(ph, prefix)
	for l != nil {
		for ; i < len(l.keys); i++ {
			if !hasPrefix(l.heads[i], l.keys[i], ph, prefix) {
				return
			}
			if !fn(l.keys[i], l.vals[i]) {
				return
			}
		}
		l = l.next
		i = 0
	}
}

// hasPrefix reports whether key (head kh) begins with prefix (head ph). The
// heads decide when they differ inside both encoded lengths (no) or when a
// whole prefix head is covered by the key's (yes).
func hasPrefix(kh uint64, key Key, ph uint64, prefix Key) bool {
	if headOrder(kh, ph) != headTie {
		return false
	}
	if ph&headWhole != 0 && ph&headLen <= kh&headLen {
		return true
	}
	if len(key) < len(prefix) {
		return false
	}
	for i := range prefix {
		if sqlval.Compare(key[i], prefix[i]) != 0 {
			return false
		}
	}
	return true
}

// findLeaf walks to the leaf that would contain key and returns it together
// with the index of the first entry >= key within that leaf.
func (t *Tree) findLeaf(h uint64, key Key) (*leaf, int) {
	n := t.root
	for {
		switch x := n.(type) {
		case *interior:
			i := lowerBoundStrict(x.heads, x.keys, h, key)
			n = x.children[i]
		case *leaf:
			return x, lowerBound(x.heads, x.keys, h, key)
		}
	}
}

// lowerBound returns the index of the first element >= key (head h).
func lowerBound(heads []uint64, keys [][]sqlval.Value, h uint64, key Key) int {
	lo, hi := 0, len(heads)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := headOrder(heads[mid], h)
		if c == headTie {
			c = compareTied(heads[mid], keys[mid], h, key)
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBoundStrict returns the index of the first element > key (head h);
// used for routing in interior nodes where keys[i] is the minimum of
// children[i+1].
func lowerBoundStrict(heads []uint64, keys [][]sqlval.Value, h uint64, key Key) int {
	lo, hi := 0, len(heads)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := headOrder(heads[mid], h)
		if c == headTie {
			c = compareTied(heads[mid], keys[mid], h, key)
		}
		if c <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert recursively inserts key (head h) into n. When n splits, it returns
// the new right sibling and the key separating the halves, with its head.
func (t *Tree) insert(n node, h uint64, key Key, val int64) (split node, splitKey Key, splitHead uint64, inserted bool) {
	switch x := n.(type) {
	case *leaf:
		i := lowerBound(x.heads, x.keys, h, key)
		if i < len(x.keys) && compare(x.heads[i], x.keys[i], h, key) == 0 {
			x.vals[i] = val
			return nil, nil, 0, false
		}
		x.keys = append(x.keys, nil)
		copy(x.keys[i+1:], x.keys[i:])
		x.keys[i] = key
		x.heads = append(x.heads, 0)
		copy(x.heads[i+1:], x.heads[i:])
		x.heads[i] = h
		x.vals = append(x.vals, 0)
		copy(x.vals[i+1:], x.vals[i:])
		x.vals[i] = val
		if len(x.keys) < degree {
			return nil, nil, 0, true
		}
		// Split the leaf in half.
		mid := len(x.keys) / 2
		right := &leaf{
			keys:  append([][]sqlval.Value(nil), x.keys[mid:]...),
			heads: append([]uint64(nil), x.heads[mid:]...),
			vals:  append([]int64(nil), x.vals[mid:]...),
			next:  x.next,
			prev:  x,
		}
		if x.next != nil {
			x.next.prev = right
		} else {
			t.last = right
		}
		x.keys = x.keys[:mid:mid]
		x.heads = x.heads[:mid:mid]
		x.vals = x.vals[:mid:mid]
		x.next = right
		return right, right.keys[0], right.heads[0], true
	case *interior:
		i := lowerBoundStrict(x.heads, x.keys, h, key)
		child, childKey, childHead, ins := t.insert(x.children[i], h, key, val)
		if child == nil {
			return nil, nil, 0, ins
		}
		x.keys = append(x.keys, nil)
		copy(x.keys[i+1:], x.keys[i:])
		x.keys[i] = childKey
		x.heads = append(x.heads, 0)
		copy(x.heads[i+1:], x.heads[i:])
		x.heads[i] = childHead
		x.children = append(x.children, nil)
		copy(x.children[i+2:], x.children[i+1:])
		x.children[i+1] = child
		if len(x.children) <= degree {
			return nil, nil, 0, ins
		}
		// Split the interior node; the middle key moves up.
		mid := len(x.keys) / 2
		upKey, upHead := x.keys[mid], x.heads[mid]
		right := &interior{
			keys:     append([][]sqlval.Value(nil), x.keys[mid+1:]...),
			heads:    append([]uint64(nil), x.heads[mid+1:]...),
			children: append([]node(nil), x.children[mid+1:]...),
		}
		x.keys = x.keys[:mid:mid]
		x.heads = x.heads[:mid:mid]
		x.children = x.children[: mid+1 : mid+1]
		return right, upKey, upHead, ins
	}
	return nil, nil, 0, false
}
