package index

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"

	"mainline/internal/storage"
)

// Node capacities. A leaf holds up to maxLeafEntries (key, slot) entries;
// inner nodes fan out to maxInnerKeys+1 children.
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

// headBytes is how many suffix bytes a head holds.
const headBytes = 7

// headOf encodes the first bytes of a key suffix s as an integer whose
// order is s's order: the first headBytes bytes of s, zero-padded, in the
// high bytes, and min(len(s), 8) in the low byte. Two heads that differ
// order their suffixes (a shorter suffix that is a prefix of a longer one
// has a zero-padded byte or a smaller length where the longer has a byte
// or a larger length). Equal heads mean equal suffixes when the low byte
// is below 8; at 8 both suffixes are longer than headBytes and are
// ordered by their tails s[headBytes:].
func headOf(s []byte) uint64 {
	if len(s) > headBytes {
		return binary.BigEndian.Uint64(s)&^0xFF | (headBytes + 1)
	}
	var h uint64
	for i, c := range s {
		h |= uint64(c) << (56 - 8*i)
	}
	return h | uint64(len(s))
}

// hasTail reports whether a head's suffix continues past headBytes.
func hasTail(h uint64) bool { return h&0xFF > headBytes }

// entries is a node's sorted (key, slot) array, prefix-truncated and
// head-keyed: every key is prefix + suffix, and the suffix is stored as
// heads[i] (headOf) plus, only when it is longer than headBytes, its tail
// tails[ends[i-1]:ends[i]]. A binary search compares the contiguous heads
// as integers and reads a tail or a slot only on a head tie. The head
// replaces the suffix bytes it covers, so keys whose suffixes fit in a
// head (the common case within one node) cost 8 bytes of key and no end
// offset: ends stays nil while no entry has a tail. InsertMulti's
// multiplicity is kept as adjacent identical entries.
type entries struct {
	prefix []byte
	heads  []uint64
	tails  []byte
	ends   []uint32
	slots  []storage.TupleSlot
}

// leafNode is a leaf: its entries, and the next leaf in key order.
type leafNode struct {
	entries
	next *leafNode
}

func (*leafNode) isLeaf() bool { return true }

// innerNode routes descents: entry i separates children[i], whose entries
// are all <= it, from children[i+1], whose entries are all >= it.
// Equality on both sides lets identical InsertMulti entries straddle a
// split.
type innerNode struct {
	entries
	children []node
}

func (*innerNode) isLeaf() bool { return false }

func (e *entries) len() int { return len(e.heads) }

func (e *entries) start(i int) uint32 {
	if i == 0 {
		return 0
	}
	return e.ends[i-1]
}

// tail returns entry i's suffix bytes past its head (nil if none).
func (e *entries) tail(i int) []byte {
	if e.ends == nil {
		return nil
	}
	return e.tails[e.start(i):e.ends[i]]
}

// appendSuffix appends entry i's suffix to dst.
func (e *entries) appendSuffix(dst []byte, i int) []byte {
	h := e.heads[i]
	n := int(min(h&0xFF, headBytes))
	for j := 0; j < n; j++ {
		dst = append(dst, byte(h>>(56-8*j)))
	}
	return append(dst, e.tail(i)...)
}

// probe is a search key split against a node's prefix.
type probe struct {
	// out is -1 when the key sorts before every key with the node's
	// prefix, +1 when after, 0 when it has the prefix.
	out  int
	head uint64
	tail []byte
}

func (e *entries) probe(key []byte) probe {
	p := e.prefix
	if len(key) < len(p) {
		if bytes.Compare(key, p[:len(key)]) > 0 {
			return probe{out: 1}
		}
		return probe{out: -1}
	}
	if c := bytes.Compare(key[:len(p)], p); c != 0 {
		return probe{out: c}
	}
	s := key[len(p):]
	pr := probe{head: headOf(s)}
	if len(s) > headBytes {
		pr.tail = s[headBytes:]
	}
	return pr
}

// keyEq reports whether entry i's key is pr's key.
func (e *entries) keyEq(i int, pr *probe) bool {
	return pr.out == 0 && e.heads[i] == pr.head &&
		(!hasTail(pr.head) || bytes.Equal(e.tail(i), pr.tail))
}

// entryEq reports whether entry i is (key, slot).
func (e *entries) entryEq(i int, key []byte, slot storage.TupleSlot) bool {
	pr := e.probe(key)
	return e.slots[i] == slot && e.keyEq(i, &pr)
}

// search returns the index of the first entry >= (key, slot).
func (e *entries) search(key []byte, slot storage.TupleSlot) int {
	pr := e.probe(key)
	switch {
	case pr.out < 0:
		return 0
	case pr.out > 0:
		return e.len()
	}
	lo, hi := 0, e.len()
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		h := e.heads[m]
		if h < pr.head || h == pr.head && e.tieLess(m, &pr, slot) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// tieLess orders entry i before (pr's key, slot), given equal heads.
func (e *entries) tieLess(i int, pr *probe, slot storage.TupleSlot) bool {
	if hasTail(pr.head) {
		if c := bytes.Compare(e.tail(i), pr.tail); c != 0 {
			return c < 0
		}
	}
	return e.slots[i] < slot
}

// insertAt places (key, slot) at entry index i. A key without the node's
// prefix shortens the prefix first; an empty node takes the whole key as
// its prefix.
func (e *entries) insertAt(i int, key []byte, slot storage.TupleSlot) {
	if e.len() == 0 {
		e.prefix = append(e.prefix[:0], key...)
	} else if n := commonPrefix(e.prefix, key); n < len(e.prefix) {
		e.reencode(e.prefix[n:], 0)
		e.prefix = e.prefix[:n]
	}
	s := key[len(e.prefix):]
	e.heads = slices.Insert(e.heads, i, headOf(s))
	e.slots = slices.Insert(e.slots, i, slot)
	if len(s) <= headBytes && e.ends == nil {
		return
	}
	if e.ends == nil {
		e.ends = make([]uint32, e.len()-1, cap(e.heads))
	}
	var t []byte
	if len(s) > headBytes {
		t = s[headBytes:]
	}
	st, k := e.start(i), uint32(len(t))
	e.tails = append(e.tails, t...)
	copy(e.tails[st+k:], e.tails[st:uint32(len(e.tails))-k])
	copy(e.tails[st:], t)
	e.ends = slices.Insert(e.ends, i, st)
	for j := i; j < len(e.ends); j++ {
		e.ends[j] += k
	}
}

// removeRange drops entries [i, j). The prefix stays: it is still shared.
func (e *entries) removeRange(i, j int) {
	if e.ends != nil {
		s, t := e.start(i), e.start(j)
		e.tails = append(e.tails[:s], e.tails[t:]...)
		e.ends = append(e.ends[:i], e.ends[j:]...)
		for x := i; x < len(e.ends); x++ {
			e.ends[x] -= t - s
		}
	}
	e.heads = append(e.heads[:i], e.heads[j:]...)
	e.slots = append(e.slots[:i], e.slots[j:]...)
}

// reencode rewrites every entry's suffix s as add + s[drop:]: the
// suffixes under a prefix shortened by len(add) bytes, or lengthened by
// drop bytes. With no tails and nothing added, it shifts the heads.
func (e *entries) reencode(add []byte, drop int) {
	if len(add) == 0 && e.ends == nil {
		for i, h := range e.heads {
			e.heads[i] = (h&^0xFF)<<(8*drop) | (h&0xFF - uint64(drop))
		}
		return
	}
	var buf [32]byte
	var tails []byte
	var ends []uint32
	for i := range e.heads {
		s := e.appendSuffix(append(buf[:0], add...), i)[drop:]
		e.heads[i] = headOf(s)
		if len(s) > headBytes {
			if ends == nil {
				ends = make([]uint32, i, len(e.heads))
			}
			tails = append(tails, s[headBytes:]...)
		}
		if ends != nil {
			ends = append(ends, uint32(len(tails)))
		}
	}
	e.tails, e.ends = tails, ends
}

// split moves entries [at, len) into the returned array. Both halves move
// to exact-size arrays — re-slicing would keep the whole pre-split arrays
// alive for half their entries — and each lengthens its prefix to what
// its remaining keys share.
func (e *entries) split(at int) entries {
	r := entries{
		prefix: slices.Clone(e.prefix),
		heads:  slices.Clone(e.heads[at:]),
		slots:  slices.Clone(e.slots[at:]),
	}
	if e.ends != nil {
		s := e.start(at)
		if s < uint32(len(e.tails)) {
			r.tails = slices.Clone(e.tails[s:])
			r.ends = make([]uint32, len(r.heads))
			for i := range r.ends {
				r.ends[i] = e.ends[at+i] - s
			}
		}
		var tails []byte
		var ends []uint32
		if s > 0 {
			tails, ends = slices.Clone(e.tails[:s]), slices.Clone(e.ends[:at])
		}
		e.tails, e.ends = tails, ends
	}
	e.heads = slices.Clone(e.heads[:at])
	e.slots = slices.Clone(e.slots[:at])
	e.growPrefix()
	r.growPrefix()
	return r
}

// growPrefix lengthens the prefix by what the first and the last suffix
// share — in sorted order, what every suffix shares.
func (e *entries) growPrefix() {
	n := e.len()
	if n == 0 {
		return
	}
	var a, b [32]byte
	first := e.appendSuffix(a[:0], 0)
	d := commonPrefix(first, e.appendSuffix(b[:0], n-1))
	if d == 0 {
		return
	}
	e.prefix = append(e.prefix[:len(e.prefix):len(e.prefix)], first[:d]...)
	e.reencode(nil, d)
}

// appendKey appends entry i's whole key to dst.
func (e *entries) appendKey(dst []byte, i int) []byte {
	return e.appendSuffix(append(dst, e.prefix...), i)
}

// commonPrefix returns the length of a's and b's longest common prefix.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
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
// descent's leaf may hold only smaller entries (an entry equal to a
// separator lives right of it), so it walks next; leaf is nil when no
// such entry exists.
func (t *BTree) seek(key []byte, slot storage.TupleSlot) (*leafNode, int) {
	leaf := t.leafFor(key, slot)
	i := leaf.search(key, slot)
	for leaf != nil && i == leaf.len() {
		leaf, i = leaf.next, 0
	}
	return leaf, i
}

// seekPath is seek keeping the descent's path, which it advances with
// the leaf, so the caller can unlink the leaf a removal empties.
func (t *BTree) seekPath(key []byte, slot storage.TupleSlot, path []pathStep) (*leafNode, int, []pathStep) {
	leaf, path := t.descend(key, slot, path)
	i := leaf.search(key, slot)
	for leaf != nil && i == leaf.len() {
		leaf, path = nextLeaf(path)
		i = 0
	}
	return leaf, i, path
}

// nextLeaf advances path to the leaf after the one it ends at; nil when
// that leaf is the last.
func nextLeaf(path []pathStep) (*leafNode, []pathStep) {
	for len(path) > 0 {
		top := &path[len(path)-1]
		if top.child+1 < len(top.in.children) {
			top.child++
			n := top.in.children[top.child]
			for !n.isLeaf() {
				in := n.(*innerNode)
				path = append(path, pathStep{in, 0})
				n = in.children[0]
			}
			return n.(*leafNode), path
		}
		path = path[:len(path)-1]
	}
	return nil, path
}

// prevLeaf returns the leaf before the one path ends at; nil when that
// leaf is the first.
func prevLeaf(path []pathStep) *leafNode {
	for d := len(path) - 1; d >= 0; d-- {
		if c := path[d].child; c > 0 {
			n := path[d].in.children[c-1]
			for !n.isLeaf() {
				in := n.(*innerNode)
				n = in.children[len(in.children)-1]
			}
			return n.(*leafNode)
		}
	}
	return nil
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
	if l, i := t.seek(key, 0); l != nil {
		if pr := l.probe(key); l.keyEq(i, &pr) {
			return false
		}
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
		if l != nil && l.entryEq(j, key, slot) {
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
			entries: entries{
				heads: make([]uint64, 0, maxLeafEntries),
				slots: make([]storage.TupleSlot, 0, maxLeafEntries),
			},
			next: leaf.next,
		}
		leaf.next = right
		right.insertAt(0, key, slot)
	} else {
		mid := leaf.len() / 2
		right = &leafNode{entries: leaf.split(mid), next: leaf.next}
		leaf.next = right
		if i < mid {
			leaf.insertAt(i, key, slot)
		} else {
			right.insertAt(i-mid, key, slot)
		}
	}
	var sep [64]byte
	t.insertIntoParent(leaf, right.appendKey(sep[:0], 0), right.slots[0], right, path)
}

// insertIntoParent adds separator (sepKey, sepSlot) and its right child
// to the parent at the end of path (a new root when path is empty). The
// parent copies sepKey.
func (t *BTree) insertIntoParent(left node, sepKey []byte, sepSlot storage.TupleSlot, right node, path []pathStep) {
	if len(path) == 0 {
		root := &innerNode{children: []node{left, right}}
		root.insertAt(0, sepKey, sepSlot)
		t.root = root
		return
	}
	p := path[len(path)-1]
	in := p.in
	in.insertAt(p.child, sepKey, sepSlot)
	in.children = slices.Insert(in.children, p.child+1, right)
	if in.len() > maxInnerKeys {
		t.splitInner(in, path[:len(path)-1])
	}
}

// splitInner moves the separators after the middle one, and their
// children, to a new right sibling, and pushes the middle one up.
func (t *BTree) splitInner(in *innerNode, path []pathStep) {
	mid := in.len() / 2
	right := &innerNode{
		entries:  in.split(mid + 1),
		children: slices.Clone(in.children[mid+1:]),
	}
	in.children = slices.Clone(in.children[:mid+1])
	var sep [64]byte
	sepKey, sepSlot := in.appendKey(sep[:0], mid), in.slots[mid]
	in.removeRange(mid, mid+1)
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
		pr := l.probe(key)
		for ; i < l.len(); i++ {
			if !l.keyEq(i, &pr) {
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
	if l, i := t.seek(key, 0); l != nil {
		if pr := l.probe(key); l.keyEq(i, &pr) {
			return l.slots[i], true
		}
	}
	return 0, false
}

// Delete removes one instance of (key, slot); with slot == 0 it removes
// every value under the key. Reports whether anything was removed. Leaves
// may underflow, but a leaf a Delete empties is unlinked from its parent
// and from the leaf chain, so a queue-like key range (TPC-C's NEW_ORDER,
// consumed oldest first) does not leave a trail of empty leaves for every
// descent to walk. An empty root stays.
func (t *BTree) Delete(key []byte, slot storage.TupleSlot) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf [8]pathStep
	if slot != 0 {
		l, i, path := t.seekPath(key, slot, buf[:0])
		if l == nil || !l.entryEq(i, key, slot) {
			return false
		}
		t.remove(l, i, i+1, path)
		t.size--
		return true
	}
	removed := 0
	for {
		l, i, path := t.seekPath(key, 0, buf[:0])
		if l == nil {
			break
		}
		pr := l.probe(key)
		j := i
		for j < l.len() && l.keyEq(j, &pr) {
			j++
		}
		if j == i {
			break
		}
		more := j == l.len() // the key's entries may continue in the next leaf
		t.remove(l, i, j, path)
		removed += j - i
		if !more {
			break
		}
	}
	t.size -= removed
	return removed > 0
}

// remove drops leaf l's entries [i, j), unlinking l if that empties it;
// path is l's descent.
func (t *BTree) remove(l *leafNode, i, j int, path []pathStep) {
	l.removeRange(i, j)
	if l.len() > 0 || len(path) == 0 {
		return
	}
	if prev := prevLeaf(path); prev != nil {
		prev.next = l.next
	}
	*l = leafNode{} // free the arrays
	for d := len(path) - 1; d >= 0; d-- {
		in, c := path[d].in, path[d].child
		in.children = slices.Delete(in.children, c, c+1)
		if k := max(c-1, 0); k < in.len() {
			in.removeRange(k, k+1)
		}
		if len(in.children) > 0 {
			break
		}
		// in lost its only child: unlink it from its own parent.
	}
	for {
		in, ok := t.root.(*innerNode)
		if !ok || len(in.children) != 1 {
			break
		}
		t.root = in.children[0]
	}
}

// keyBufs recycles Scan's key buffers, so a scan allocates nothing.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// Scan visits keys in [lo, hi) in order, calling fn for each (key, slot)
// pair; hi == nil means unbounded. fn returning false stops the scan. The
// key passed to fn is rebuilt from the node's prefix and head into a
// buffer reused for the next entry: it is valid only during the call.
func (t *BTree) Scan(lo, hi []byte, fn func(key []byte, slot storage.TupleSlot) bool) {
	bp := keyBufs.Get().(*[]byte)
	*bp = t.scan(lo, hi, fn, (*bp)[:0])
	keyBufs.Put(bp)
}

func (t *BTree) scan(lo, hi []byte, fn func(key []byte, slot storage.TupleSlot) bool, k []byte) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for l, i := t.seek(lo, 0); l != nil; l, i = l.next, 0 {
		end := l.len()
		if hi != nil {
			end = l.search(hi, 0) // slot 0: the first entry whose key is >= hi
		}
		k = append(k[:0], l.prefix...)
		p := len(k)
		for ; i < end; i++ {
			k = l.appendSuffix(k[:p], i)
			if !fn(k[:len(k):len(k)], l.slots[i]) {
				return k
			}
		}
		if end < l.len() {
			return k
		}
	}
	return k
}

// ScanPrefix visits every (key, slot) whose key starts with prefix.
func (t *BTree) ScanPrefix(prefix []byte, fn func(key []byte, slot storage.TupleSlot) bool) {
	t.Scan(prefix, PrefixEnd(prefix), fn)
}
