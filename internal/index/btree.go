package index

import (
	"bytes"
	"slices"
	"sync"

	"mainline/internal/storage"
)

// Node capacities. A leaf holds up to maxLeafEntries (key, slot) entries
// in three flat arrays, so a full leaf of 8-byte keys is 2.5 KB in three
// allocations; inner nodes fan out to maxInnerKeys+1 children.
const (
	maxLeafEntries = 128
	maxInnerKeys   = 64
)

// BTree is an ordered multiset of (key, slot) entries over memcomparable
// keys. Entries are ordered by key, then by slot — the heap-TID tie-break
// of Postgres' nbtree — so a key's duplicates are ordinary entries that
// may span leaves. A single RWMutex guards the tree: point and range reads
// run concurrently; writers serialize. The Sharded wrapper spreads
// disjoint key spaces (e.g. TPC-C warehouses) over many trees to recover
// write concurrency.
type BTree struct {
	mu   sync.RWMutex
	root node
	size int
}

type node interface {
	// isLeaf discriminates without type switches on the hot path.
	isLeaf() bool
}

// leafNode packs its entries: entry i's key is keys[ends[i-1]:ends[i]]
// (keys[:ends[0]] for i == 0) and its slot is slots[i]. InsertMulti's
// multiplicity is kept as adjacent identical entries.
type leafNode struct {
	keys  []byte
	ends  []uint32
	slots []storage.TupleSlot
	next  *leafNode
}

func (*leafNode) isLeaf() bool { return true }

type innerNode struct {
	// (keys[i], slots[i]) separates children[i], whose entries are all
	// <= it, from children[i+1], whose entries are all >= it. Equality
	// on both sides lets identical InsertMulti entries straddle a split.
	keys     [][]byte
	slots    []storage.TupleSlot
	children []node
}

func (*innerNode) isLeaf() bool { return false }

// compareEntry orders (ak, as) against (bk, bs): by key, then by slot.
func compareEntry(ak []byte, as storage.TupleSlot, bk []byte, bs storage.TupleSlot) int {
	if c := bytes.Compare(ak, bk); c != 0 {
		return c
	}
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	}
	return 0
}

func (l *leafNode) len() int { return len(l.slots) }

func (l *leafNode) start(i int) uint32 {
	if i == 0 {
		return 0
	}
	return l.ends[i-1]
}

// key returns entry i's key, capacity-capped so a caller's append cannot
// overwrite the next entry's bytes.
func (l *leafNode) key(i int) []byte {
	s, e := l.start(i), l.ends[i]
	return l.keys[s:e:e]
}

// search returns the index of the first entry >= (key, slot).
func (l *leafNode) search(key []byte, slot storage.TupleSlot) int {
	lo, hi := 0, l.len()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if compareEntry(l.key(m), l.slots[m], key, slot) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insertAt places (key, slot) at entry index i, copying the key.
func (l *leafNode) insertAt(i int, key []byte, slot storage.TupleSlot) {
	s, k := l.start(i), uint32(len(key))
	l.keys = append(l.keys, key...)
	copy(l.keys[s+k:], l.keys[s:uint32(len(l.keys))-k])
	copy(l.keys[s:], key)
	l.ends = slices.Insert(l.ends, i, s)
	for j := i; j < len(l.ends); j++ {
		l.ends[j] += k
	}
	l.slots = slices.Insert(l.slots, i, slot)
}

// removeRange drops entries [i, j).
func (l *leafNode) removeRange(i, j int) {
	s, e := l.start(i), l.start(j)
	l.keys = append(l.keys[:s], l.keys[e:]...)
	l.ends = append(l.ends[:i], l.ends[j:]...)
	for x := i; x < len(l.ends); x++ {
		l.ends[x] -= e - s
	}
	l.slots = append(l.slots[:i], l.slots[j:]...)
}

// split moves entries [at, len) into a new right sibling. Both halves move
// to exact-size arrays: re-slicing would keep the whole pre-split arrays
// alive for half their entries.
func (l *leafNode) split(at int) *leafNode {
	s := l.start(at)
	r := &leafNode{
		keys:  append([]byte(nil), l.keys[s:]...),
		ends:  make([]uint32, l.len()-at),
		slots: append([]storage.TupleSlot(nil), l.slots[at:]...),
		next:  l.next,
	}
	for i := range r.ends {
		r.ends[i] = l.ends[at+i] - s
	}
	l.keys = append([]byte(nil), l.keys[:s]...)
	l.ends = append([]uint32(nil), l.ends[:at]...)
	l.slots = append([]storage.TupleSlot(nil), l.slots[:at]...)
	l.next = r
	return r
}

// search returns the number of separators < (key, slot): the child whose
// leaves hold the first entry >= (key, slot), or whose range ends just
// before it.
func (in *innerNode) search(key []byte, slot storage.TupleSlot) int {
	lo, hi := 0, len(in.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if compareEntry(in.keys[m], in.slots[m], key, slot) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// pathStep records one inner node of a descent and the child taken.
type pathStep struct {
	in    *innerNode
	child int
}

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &leafNode{}}
}

// Len returns the number of (key, slot) pairs stored.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// descend returns the leaf where an entry (key, slot) belongs, appending
// the inner nodes passed to path. Slot 0 sorts before every real slot, so
// (key, 0) lands at the key's first entry.
func (t *BTree) descend(key []byte, slot storage.TupleSlot, path []pathStep) (*leafNode, []pathStep) {
	n := t.root
	for !n.isLeaf() {
		in := n.(*innerNode)
		i := in.search(key, slot)
		path = append(path, pathStep{in, i})
		n = in.children[i]
	}
	return n.(*leafNode), path
}

// leafFor returns the leaf where an entry (key, slot) belongs, like
// descend but recording no path: the read-only descent.
func (t *BTree) leafFor(key []byte, slot storage.TupleSlot) *leafNode {
	n := t.root
	for !n.isLeaf() {
		in := n.(*innerNode)
		n = in.children[in.search(key, slot)]
	}
	return n.(*leafNode)
}

// seek returns the position of the first entry >= (key, slot). The
// descent's leaf may hold only smaller entries (or none, after deletes),
// so it walks next; leaf is nil when no such entry exists.
func (t *BTree) seek(key []byte, slot storage.TupleSlot) (*leafNode, int) {
	leaf := t.leafFor(key, slot)
	i := leaf.search(key, slot)
	for leaf != nil && i == leaf.len() {
		leaf, i = leaf.next, 0
	}
	return leaf, i
}

// Insert adds (key, slot). Duplicate (key, slot) pairs are ignored.
func (t *BTree) Insert(key []byte, slot storage.TupleSlot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insert(key, slot, true)
}

// InsertMulti adds (key, slot) WITHOUT pair deduplication: an identical
// pair may be stored more than once, and each Delete removes exactly one
// instance. This is the commit-path primitive — every published entry is
// cancelled by exactly one deferred removal, so a re-published pair whose
// earlier incarnation still has a removal in flight survives it.
func (t *BTree) InsertMulti(key []byte, slot storage.TupleSlot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insert(key, slot, false)
}

// InsertUnique adds (key, slot) only if the key is absent; reports whether
// the insert happened (unique-index semantics).
func (t *BTree) InsertUnique(key []byte, slot storage.TupleSlot) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, i := t.seek(key, 0); l != nil && bytes.Equal(l.key(i), key) {
		return false
	}
	t.insert(key, slot, false)
	return true
}

// insert places (key, slot) in the leaf its descent reaches; with dedup
// it does nothing if the pair is already stored. A full leaf splits
// first: at its end when the entry goes past its last one — an ascending
// stream such as the recovery backfill, or one TPC-C district's new
// orders, then leaves every leaf full — and in the middle otherwise.
func (t *BTree) insert(key []byte, slot storage.TupleSlot, dedup bool) {
	var buf [8]pathStep
	leaf, path := t.descend(key, slot, buf[:0])
	i := leaf.search(key, slot)
	if dedup {
		l, j := leaf, i
		for l != nil && j == l.len() {
			l, j = l.next, 0
		}
		if l != nil && compareEntry(l.key(j), l.slots[j], key, slot) == 0 {
			return
		}
	}
	t.size++
	if leaf.len() < maxLeafEntries {
		leaf.insertAt(i, key, slot)
		return
	}
	var right *leafNode
	if i == leaf.len() {
		right = &leafNode{
			keys:  make([]byte, 0, maxLeafEntries*len(key)),
			ends:  make([]uint32, 0, maxLeafEntries),
			slots: make([]storage.TupleSlot, 0, maxLeafEntries),
			next:  leaf.next,
		}
		leaf.next = right
		right.insertAt(0, key, slot)
	} else {
		mid := leaf.len() / 2
		right = leaf.split(mid)
		if i < mid {
			leaf.insertAt(i, key, slot)
		} else {
			right.insertAt(i-mid, key, slot)
		}
	}
	t.insertIntoParent(leaf, append([]byte(nil), right.key(0)...), right.slots[0], right, path)
}

func (t *BTree) insertIntoParent(left node, sepKey []byte, sepSlot storage.TupleSlot, right node, path []pathStep) {
	if len(path) == 0 {
		t.root = &innerNode{
			keys:     [][]byte{sepKey},
			slots:    []storage.TupleSlot{sepSlot},
			children: []node{left, right},
		}
		return
	}
	p := path[len(path)-1]
	in := p.in
	in.keys = slices.Insert(in.keys, p.child, sepKey)
	in.slots = slices.Insert(in.slots, p.child, sepSlot)
	in.children = slices.Insert(in.children, p.child+1, right)
	if len(in.keys) > maxInnerKeys {
		t.splitInner(in, path[:len(path)-1])
	}
}

func (t *BTree) splitInner(in *innerNode, path []pathStep) {
	mid := len(in.keys) / 2
	sepKey, sepSlot := in.keys[mid], in.slots[mid]
	right := &innerNode{
		keys:     append([][]byte(nil), in.keys[mid+1:]...),
		slots:    append([]storage.TupleSlot(nil), in.slots[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	in.keys = append([][]byte(nil), in.keys[:mid]...)
	in.slots = append([]storage.TupleSlot(nil), in.slots[:mid]...)
	in.children = append([]node(nil), in.children[:mid+1]...)
	t.insertIntoParent(in, sepKey, sepSlot, right, path)
}

// Get appends the slots stored under key to out, in slot order, and
// returns the extended slice (out unchanged if the key is absent). The
// matches are copied while the tree latch is held, so the result stays
// valid — and race-free — under concurrent writers; pass a reusable
// scratch slice to avoid allocation on hot paths.
func (t *BTree) Get(key []byte, out []storage.TupleSlot) []storage.TupleSlot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for l, i := t.seek(key, 0); l != nil; l, i = l.next, 0 {
		for ; i < l.len(); i++ {
			if !bytes.Equal(l.key(i), key) {
				return out
			}
			out = append(out, l.slots[i])
		}
	}
	return out
}

// GetOne returns a single slot for key (unique-index read): its smallest.
func (t *BTree) GetOne(key []byte) (storage.TupleSlot, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if l, i := t.seek(key, 0); l != nil && bytes.Equal(l.key(i), key) {
		return l.slots[i], true
	}
	return 0, false
}

// Delete removes one instance of (key, slot); with slot == 0 it removes
// every value under the key. Reports whether anything was removed.
// (Leaves are allowed to underflow — the engine's deletes are rare
// relative to lookups, matching the paper's index usage.)
func (t *BTree) Delete(key []byte, slot storage.TupleSlot) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, i := t.seek(key, slot)
	if slot != 0 {
		if l == nil || compareEntry(l.key(i), l.slots[i], key, slot) != 0 {
			return false
		}
		l.removeRange(i, i+1)
		t.size--
		return true
	}
	removed := 0
	for ; l != nil; l, i = l.next, 0 {
		j := i
		for j < l.len() && bytes.Equal(l.key(j), key) {
			j++
		}
		l.removeRange(i, j)
		removed += j - i
		if i < l.len() {
			break
		}
	}
	t.size -= removed
	return removed > 0
}

// Scan visits keys in [lo, hi) in order, calling fn for each (key, slot)
// pair; hi == nil means unbounded. fn returning false stops the scan. The
// key passed to fn aliases the tree and is valid only during the call.
func (t *BTree) Scan(lo, hi []byte, fn func(key []byte, slot storage.TupleSlot) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for l, i := t.seek(lo, 0); l != nil; l, i = l.next, 0 {
		for ; i < l.len(); i++ {
			k := l.key(i)
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return
			}
			if !fn(k, l.slots[i]) {
				return
			}
		}
	}
}

// ScanPrefix visits every (key, slot) whose key starts with prefix.
func (t *BTree) ScanPrefix(prefix []byte, fn func(key []byte, slot storage.TupleSlot) bool) {
	t.Scan(prefix, PrefixEnd(prefix), fn)
}
