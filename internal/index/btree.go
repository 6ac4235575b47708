package index

import (
	"bytes"
	"sort"
	"sync"

	"mainline/internal/storage"
)

// Fanout bounds for nodes. 64-wide nodes keep the tree shallow while
// bounding copy costs on splits.
const (
	maxLeafKeys  = 64
	maxInnerKeys = 64
)

// BTree is an ordered map from memcomparable keys to TupleSlots supporting
// duplicate keys (each key holds a small set of slots). A single RWMutex
// guards the tree: point and range reads run concurrently; writers
// serialize. The Sharded wrapper spreads disjoint key spaces (e.g. TPC-C
// warehouses) over many trees to recover write concurrency.
type BTree struct {
	mu   sync.RWMutex
	root node
	size int
}

type node interface {
	// isLeaf discriminates without type switches on the hot path.
	isLeaf() bool
}

type leafNode struct {
	keys [][]byte
	vals [][]storage.TupleSlot
	next *leafNode
}

func (*leafNode) isLeaf() bool { return true }

type innerNode struct {
	// keys[i] is the smallest key in children[i+1].
	keys     [][]byte
	children []node
}

func (*innerNode) isLeaf() bool { return false }

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

// findLeaf descends to the leaf that owns key, remembering the path.
func (t *BTree) findLeaf(key []byte, path *[]*innerNode) *leafNode {
	n := t.root
	for !n.isLeaf() {
		in := n.(*innerNode)
		if path != nil {
			*path = append(*path, in)
		}
		idx := sort.Search(len(in.keys), func(i int) bool { return bytes.Compare(in.keys[i], key) > 0 })
		n = in.children[idx]
	}
	return n.(*leafNode)
}

// Insert adds (key, slot). Duplicate (key, slot) pairs are ignored.
func (t *BTree) Insert(key []byte, slot storage.TupleSlot) {
	t.insert(key, slot, true)
}

// InsertMulti adds (key, slot) WITHOUT pair deduplication: an identical
// pair may be stored more than once, and each Delete removes exactly one
// instance. This is the commit-path primitive — every published entry is
// cancelled by exactly one deferred removal, so a re-published pair whose
// earlier incarnation still has a removal in flight survives it.
func (t *BTree) InsertMulti(key []byte, slot storage.TupleSlot) {
	t.insert(key, slot, false)
}

func (t *BTree) insert(key []byte, slot storage.TupleSlot, dedup bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var path []*innerNode
	leaf := t.findLeaf(key, &path)
	idx := sort.Search(len(leaf.keys), func(i int) bool { return bytes.Compare(leaf.keys[i], key) >= 0 })
	if idx < len(leaf.keys) && bytes.Equal(leaf.keys[idx], key) {
		if dedup {
			for _, v := range leaf.vals[idx] {
				if v == slot {
					return
				}
			}
		}
		leaf.vals[idx] = append(leaf.vals[idx], slot)
		t.size++
		return
	}
	owned := append([]byte(nil), key...)
	leaf.keys = append(leaf.keys, nil)
	copy(leaf.keys[idx+1:], leaf.keys[idx:])
	leaf.keys[idx] = owned
	leaf.vals = append(leaf.vals, nil)
	copy(leaf.vals[idx+1:], leaf.vals[idx:])
	leaf.vals[idx] = []storage.TupleSlot{slot}
	t.size++
	if len(leaf.keys) > maxLeafKeys {
		t.splitLeaf(leaf, path)
	}
}

// InsertUnique adds (key, slot) only if the key is absent; reports whether
// the insert happened (unique-index semantics).
func (t *BTree) InsertUnique(key []byte, slot storage.TupleSlot) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	var path []*innerNode
	leaf := t.findLeaf(key, &path)
	idx := sort.Search(len(leaf.keys), func(i int) bool { return bytes.Compare(leaf.keys[i], key) >= 0 })
	if idx < len(leaf.keys) && bytes.Equal(leaf.keys[idx], key) {
		return false
	}
	owned := append([]byte(nil), key...)
	leaf.keys = append(leaf.keys, nil)
	copy(leaf.keys[idx+1:], leaf.keys[idx:])
	leaf.keys[idx] = owned
	leaf.vals = append(leaf.vals, nil)
	copy(leaf.vals[idx+1:], leaf.vals[idx:])
	leaf.vals[idx] = []storage.TupleSlot{slot}
	t.size++
	if len(leaf.keys) > maxLeafKeys {
		t.splitLeaf(leaf, path)
	}
	return true
}

func (t *BTree) splitLeaf(leaf *leafNode, path []*innerNode) {
	mid := len(leaf.keys) / 2
	right := &leafNode{
		keys: append([][]byte(nil), leaf.keys[mid:]...),
		vals: append([][]storage.TupleSlot(nil), leaf.vals[mid:]...),
		next: leaf.next,
	}
	// The left half moves to exact-size arrays: re-slicing would keep the
	// whole grown pre-split array alive for half its entries.
	leaf.keys = append([][]byte(nil), leaf.keys[:mid]...)
	leaf.vals = append([][]storage.TupleSlot(nil), leaf.vals[:mid]...)
	leaf.next = right
	t.insertIntoParent(leaf, right.keys[0], right, path)
}

func (t *BTree) insertIntoParent(left node, sepKey []byte, right node, path []*innerNode) {
	if len(path) == 0 {
		t.root = &innerNode{keys: [][]byte{sepKey}, children: []node{left, right}}
		return
	}
	parent := path[len(path)-1]
	idx := sort.Search(len(parent.keys), func(i int) bool { return bytes.Compare(parent.keys[i], sepKey) > 0 })
	parent.keys = append(parent.keys, nil)
	copy(parent.keys[idx+1:], parent.keys[idx:])
	parent.keys[idx] = sepKey
	parent.children = append(parent.children, nil)
	copy(parent.children[idx+2:], parent.children[idx+1:])
	parent.children[idx+1] = right
	if len(parent.keys) > maxInnerKeys {
		t.splitInner(parent, path[:len(path)-1])
	}
}

func (t *BTree) splitInner(in *innerNode, path []*innerNode) {
	mid := len(in.keys) / 2
	sep := in.keys[mid]
	right := &innerNode{
		keys:     append([][]byte(nil), in.keys[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	in.keys = append([][]byte(nil), in.keys[:mid]...)
	in.children = append([]node(nil), in.children[:mid+1]...)
	t.insertIntoParent(in, sep, right, path)
}

// Get appends the slots stored under key to out and returns the extended
// slice (out unchanged if the key is absent). The matches are copied while
// the tree latch is held, so the result stays valid — and race-free —
// under concurrent writers; pass a reusable scratch slice to avoid
// allocation on hot paths.
func (t *BTree) Get(key []byte, out []storage.TupleSlot) []storage.TupleSlot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(key, nil)
	idx := sort.Search(len(leaf.keys), func(i int) bool { return bytes.Compare(leaf.keys[i], key) >= 0 })
	if idx < len(leaf.keys) && bytes.Equal(leaf.keys[idx], key) {
		out = append(out, leaf.vals[idx]...)
	}
	return out
}

// GetOne returns a single slot for key (unique-index read).
func (t *BTree) GetOne(key []byte) (storage.TupleSlot, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(key, nil)
	idx := sort.Search(len(leaf.keys), func(i int) bool { return bytes.Compare(leaf.keys[i], key) >= 0 })
	if idx < len(leaf.keys) && bytes.Equal(leaf.keys[idx], key) && len(leaf.vals[idx]) > 0 {
		return leaf.vals[idx][0], true
	}
	return 0, false
}

// Delete removes (key, slot); with slot == 0 it removes every value under
// the key. Reports whether anything was removed. (Leaves are allowed to
// underflow — the engine's deletes are rare relative to lookups, matching
// the paper's index usage.)
func (t *BTree) Delete(key []byte, slot storage.TupleSlot) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := t.findLeaf(key, nil)
	idx := sort.Search(len(leaf.keys), func(i int) bool { return bytes.Compare(leaf.keys[i], key) >= 0 })
	if idx >= len(leaf.keys) || !bytes.Equal(leaf.keys[idx], key) {
		return false
	}
	if slot == 0 {
		t.size -= len(leaf.vals[idx])
		leaf.keys = append(leaf.keys[:idx], leaf.keys[idx+1:]...)
		leaf.vals = append(leaf.vals[:idx], leaf.vals[idx+1:]...)
		return true
	}
	vals := leaf.vals[idx]
	for i, v := range vals {
		if v == slot {
			leaf.vals[idx] = append(vals[:i], vals[i+1:]...)
			t.size--
			if len(leaf.vals[idx]) == 0 {
				leaf.keys = append(leaf.keys[:idx], leaf.keys[idx+1:]...)
				leaf.vals = append(leaf.vals[:idx], leaf.vals[idx+1:]...)
			}
			return true
		}
	}
	return false
}

// Scan visits keys in [lo, hi) in order, calling fn for each (key, slot)
// pair; hi == nil means unbounded. fn returning false stops the scan.
func (t *BTree) Scan(lo, hi []byte, fn func(key []byte, slot storage.TupleSlot) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(lo, nil)
	idx := sort.Search(len(leaf.keys), func(i int) bool { return bytes.Compare(leaf.keys[i], lo) >= 0 })
	for leaf != nil {
		for ; idx < len(leaf.keys); idx++ {
			if hi != nil && bytes.Compare(leaf.keys[idx], hi) >= 0 {
				return
			}
			for _, v := range leaf.vals[idx] {
				if !fn(leaf.keys[idx], v) {
					return
				}
			}
		}
		leaf = leaf.next
		idx = 0
	}
}

// ScanPrefix visits every (key, slot) whose key starts with prefix.
func (t *BTree) ScanPrefix(prefix []byte, fn func(key []byte, slot storage.TupleSlot) bool) {
	t.Scan(prefix, PrefixEnd(prefix), fn)
}
