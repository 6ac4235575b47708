package index

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"mainline/internal/storage"
)

func TestKeyBuilderOrdering(t *testing.T) {
	enc := func(v int64) []byte { return NewKeyBuilder(8).Int64(v).Clone() }
	vals := []int64{-(1 << 62), -1000, -1, 0, 1, 42, 1 << 62}
	for i := 1; i < len(vals); i++ {
		if bytes.Compare(enc(vals[i-1]), enc(vals[i])) >= 0 {
			t.Fatalf("Int64 order broken between %d and %d", vals[i-1], vals[i])
		}
	}
	encS := func(s string) []byte { return NewKeyBuilder(8).String(s).Clone() }
	strs := []string{"", "a", "aa", "ab", "b", "ba"}
	for i := 1; i < len(strs); i++ {
		if bytes.Compare(encS(strs[i-1]), encS(strs[i])) >= 0 {
			t.Fatalf("String order broken between %q and %q", strs[i-1], strs[i])
		}
	}
}

// Property: composite (int64, string) keys sort like their logical tuples.
func TestQuickCompositeKeyOrder(t *testing.T) {
	f := func(a1, a2 int64, s1, s2 string) bool {
		k1 := NewKeyBuilder(16).Int64(a1).String(s1).Clone()
		k2 := NewKeyBuilder(16).Int64(a2).String(s2).Clone()
		logical := 0
		switch {
		case a1 < a2:
			logical = -1
		case a1 > a2:
			logical = 1
		default:
			switch {
			case s1 < s2:
				logical = -1
			case s1 > s2:
				logical = 1
			}
		}
		return sign(bytes.Compare(k1, k2)) == logical
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	default:
		return 0
	}
}

func TestKeyBuilderEmbeddedZeros(t *testing.T) {
	k1 := NewKeyBuilder(8).String("a\x00b").Clone()
	k2 := NewKeyBuilder(8).String("a\x00c").Clone()
	k3 := NewKeyBuilder(8).String("a").Clone()
	if bytes.Compare(k3, k1) >= 0 || bytes.Compare(k1, k2) >= 0 {
		t.Fatal("embedded zero ordering broken")
	}
}

func TestKeyBuilderFloat64Ordering(t *testing.T) {
	enc := func(v float64) []byte { return NewKeyBuilder(8).Float64(v).Clone() }
	vals := []float64{math.Inf(-1), -1e300, -1.5, -0.0, 1e-300, 1.5, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if bytes.Compare(enc(vals[i-1]), enc(vals[i])) >= 0 {
			t.Fatalf("Float64 order broken between %g and %g", vals[i-1], vals[i])
		}
	}
}

func TestNewShardedInvalidPrefixLen(t *testing.T) {
	for _, bad := range []int{0, -1, -100} {
		if _, err := NewSharded(4, bad); !errors.Is(err, ErrInvalidPrefixLen) {
			t.Fatalf("NewSharded(4, %d) err = %v, want ErrInvalidPrefixLen", bad, err)
		}
	}
	if _, err := NewSharded(0, 1); err != nil {
		t.Fatalf("NewSharded(0, 1) err = %v", err)
	}
}

func TestPrefixEnd(t *testing.T) {
	if got := PrefixEnd([]byte{1, 2, 3}); !bytes.Equal(got, []byte{1, 2, 4}) {
		t.Fatalf("PrefixEnd = %v", got)
	}
	if got := PrefixEnd([]byte{1, 0xFF}); !bytes.Equal(got, []byte{2}) {
		t.Fatalf("PrefixEnd = %v", got)
	}
	if got := PrefixEnd([]byte{0xFF, 0xFF}); got != nil {
		t.Fatalf("PrefixEnd = %v", got)
	}
}

func slotOf(i int) storage.TupleSlot { return storage.NewTupleSlot(uint64(i+1), 0) }

func TestBTreeBasicOps(t *testing.T) {
	tr := NewBTree()
	key := func(i int) []byte { return NewKeyBuilder(8).Int64(int64(i)).Clone() }
	const n = 1000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		tr.Insert(key(i), slotOf(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		got, ok := tr.GetOne(key(i))
		if !ok || got != slotOf(i) {
			t.Fatalf("Get(%d) = %v %v", i, got, ok)
		}
	}
	if _, ok := tr.GetOne(key(n + 5)); ok {
		t.Fatal("found missing key")
	}
	// Ordered full scan.
	prev := -1
	count := 0
	tr.Scan(key(0), nil, func(k []byte, _ storage.TupleSlot) bool {
		count++
		cur := int(int64(bytesToUint(k)) - (1 << 62)) // not used for order check
		_ = cur
		if prev >= 0 && bytes.Compare(key(prev), k) > 0 {
			t.Fatal("scan out of order")
		}
		prev++
		return true
	})
	if count != n {
		t.Fatalf("scan visited %d", count)
	}
}

func bytesToUint(b []byte) uint64 {
	var v uint64
	for _, x := range b[:8] {
		v = v<<8 | uint64(x)
	}
	return v
}

func TestBTreeRangeScan(t *testing.T) {
	tr := NewBTree()
	key := func(i int) []byte { return NewKeyBuilder(8).Int64(int64(i)).Clone() }
	for i := 0; i < 500; i++ {
		tr.Insert(key(i), slotOf(i))
	}
	var got []int
	tr.Scan(key(100), key(110), func(k []byte, s storage.TupleSlot) bool {
		got = append(got, int(s.BlockID()-1))
		return true
	})
	if len(got) != 10 || got[0] != 100 || got[9] != 109 {
		t.Fatalf("range scan = %v", got)
	}
	// Early stop.
	count := 0
	tr.Scan(key(0), nil, func([]byte, storage.TupleSlot) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestBTreeDuplicatesAndDelete(t *testing.T) {
	tr := NewBTree()
	k := NewKeyBuilder(8).String("dup").Clone()
	tr.Insert(k, slotOf(1))
	tr.Insert(k, slotOf(2))
	tr.Insert(k, slotOf(1)) // duplicate pair ignored
	if got := tr.Get(k, nil); len(got) != 2 {
		t.Fatalf("dup values = %v", got)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if !tr.Delete(k, slotOf(1)) {
		t.Fatal("delete failed")
	}
	if got := tr.Get(k, nil); len(got) != 1 || got[0] != slotOf(2) {
		t.Fatalf("after delete: %v", got)
	}
	if tr.Delete(k, slotOf(99)) {
		t.Fatal("deleted missing value")
	}
	if !tr.Delete(k, 0) { // remove all
		t.Fatal("delete-all failed")
	}
	if tr.Get(k, nil) != nil || tr.Len() != 0 {
		t.Fatal("key survived delete-all")
	}
}

func TestBTreeInsertUnique(t *testing.T) {
	tr := NewBTree()
	k := NewKeyBuilder(8).Int64(7).Clone()
	if !tr.InsertUnique(k, slotOf(1)) {
		t.Fatal("first unique insert failed")
	}
	if tr.InsertUnique(k, slotOf(2)) {
		t.Fatal("duplicate unique insert succeeded")
	}
	got, _ := tr.GetOne(k)
	if got != slotOf(1) {
		t.Fatal("value clobbered")
	}
}

// Property: the tree agrees with the reference multiset under random
// operations, InsertMulti's multiplicity and one-instance deletes included.
func TestQuickBTreeVsModel(t *testing.T) {
	kinds := []btreeOpKind{opInsert, opDeleteKey, opGetOne, opInsertMulti, opDelete, opGet}
	f := func(ops []uint16) bool {
		tr, m := NewBTree(), newBTreeModel()
		for _, op := range ops {
			// 32 keys and 3 slots, so pairs and keys repeat.
			o := btreeOp{
				kind: kinds[int(op>>5)%len(kinds)],
				key:  NewKeyBuilder(8).Int64(int64(op % 32)).Clone(),
				slot: slotOf(int(op>>8) % 3),
			}
			if err := applyBTreeOp(tr, m, o); err != nil {
				t.Log(err)
				return false
			}
		}
		// Full scan equals the sorted model.
		return applyBTreeOp(tr, m, btreeOp{kind: opScan, key: []byte{}}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeConcurrentReaders(t *testing.T) {
	tr := NewBTree()
	key := func(i int) []byte { return NewKeyBuilder(8).Int64(int64(i)).Clone() }
	for i := 0; i < 5000; i++ {
		tr.Insert(key(i), slotOf(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				idx := (i * 37) % 5000
				if got, ok := tr.GetOne(key(idx)); !ok || got != slotOf(idx) {
					t.Errorf("concurrent read wrong at %d", idx)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestShardedSemantics(t *testing.T) {
	s, err := NewSharded(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Keys: (warehouse int64, counter int64).
	key := func(w, c int) []byte {
		return NewKeyBuilder(16).Int64(int64(w)).Int64(int64(c)).Clone()
	}
	for w := 0; w < 4; w++ {
		for c := 0; c < 100; c++ {
			s.Insert(key(w, c), slotOf(w*1000+c))
		}
	}
	if s.Len() != 400 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Point reads.
	got, ok := s.GetOne(key(2, 50))
	if !ok || got != slotOf(2050) {
		t.Fatal("sharded get wrong")
	}
	// Same-prefix range scan (single shard path).
	var seen []int
	s.Scan(key(1, 10), key(1, 20), func(_ []byte, v storage.TupleSlot) bool {
		seen = append(seen, int(v.BlockID()-1))
		return true
	})
	if len(seen) != 10 || seen[0] != 1010 {
		t.Fatalf("same-shard scan = %v", seen)
	}
	// Cross-shard scan (merge path) still yields global order.
	var keys [][]byte
	s.Scan(key(0, 0), nil, func(k []byte, _ storage.TupleSlot) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	})
	if len(keys) != 400 {
		t.Fatalf("cross-shard scan visited %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) > 0 {
			t.Fatal("cross-shard scan out of order")
		}
	}
	// Unique inserts respect per-key uniqueness.
	if !s.InsertUnique(key(9, 9), slotOf(1)) || s.InsertUnique(key(9, 9), slotOf(2)) {
		t.Fatal("sharded unique semantics wrong")
	}
	// Delete.
	if !s.Delete(key(2, 50), slotOf(2050)) {
		t.Fatal("sharded delete failed")
	}
	if _, ok := s.GetOne(key(2, 50)); ok {
		t.Fatal("deleted key still present")
	}
}

func TestShardedConcurrentWriters(t *testing.T) {
	s, err := NewSharded(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers = 8
	const per = 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := NewKeyBuilder(16).Int64(int64(w)).Int64(int64(i)).Clone()
				s.Insert(k, slotOf(w*per+i))
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != workers*per {
		t.Fatalf("Len = %d", s.Len())
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < per; i += 97 {
			k := NewKeyBuilder(16).Int64(int64(w)).Int64(int64(i)).Clone()
			got, ok := s.GetOne(k)
			if !ok || got != slotOf(w*per+i) {
				t.Fatalf("lost key %d/%d", w, i)
			}
		}
	}
}

func TestBTreeLargeSplits(t *testing.T) {
	tr := NewBTree()
	const n = 50000
	for i := 0; i < n; i++ {
		k := NewKeyBuilder(8).Int64(int64((i * 7919) % n)).Clone()
		tr.Insert(k, slotOf(i))
	}
	// Spot check deep-tree lookups.
	for i := 0; i < n; i += 1013 {
		k := NewKeyBuilder(8).Int64(int64(i)).Clone()
		if _, ok := tr.GetOne(k); !ok {
			t.Fatalf("missing key %d", i)
		}
	}
}

// liveHeap returns the live heap after forcing collections.
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// TestBTreeAscendingInsertHeap bounds the heap an ascending load costs per
// entry — the recovery backfill's order. A leaf stores its keys' shared
// prefix once and, per entry, an 8-byte head (the suffix of these 8-byte
// keys always fits in it, so there are no tail bytes or end offsets) and
// an 8-byte slot; a split at the end of the leaf an append overflows
// leaves it full. The bound allows those 16 bytes plus node overhead and
// headroom. Not parallel: it reads the process heap.
func TestBTreeAscendingInsertHeap(t *testing.T) {
	const n = 200_000
	before := liveHeap()
	tr := NewBTree()
	kb := NewKeyBuilder(8)
	for i := 0; i < n; i++ {
		tr.Insert(kb.Reset().Int64(int64(i)).Bytes(), slotOf(i))
	}
	perEntry := (liveHeap() - before) / n
	runtime.KeepAlive(tr)
	if tr.Len() != n {
		t.Fatalf("tree holds %d entries, want %d", tr.Len(), n)
	}
	t.Logf("%.1f B/entry", perEntry)
	if perEntry > 24 {
		t.Fatalf("ascending inserts cost %.1f B/entry, want <= 24", perEntry)
	}
}

func TestShardedPrefixScan(t *testing.T) {
	s, err := NewSharded(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 20; c++ {
		k := NewKeyBuilder(16).Int64(7).Int64(int64(c)).Clone()
		s.Insert(k, slotOf(c))
	}
	prefix := NewKeyBuilder(8).Int64(7).Clone()
	count := 0
	s.ScanPrefix(prefix, func([]byte, storage.TupleSlot) bool {
		count++
		return true
	})
	if count != 20 {
		t.Fatalf("prefix scan visited %d", count)
	}
	_ = fmt.Sprint() // keep fmt import if unused elsewhere
}

// leafStats walks the leaf chain from the leftmost leaf, checking it
// visits exactly the leaves the inner nodes reach, in order, and returns
// how many leaves there are and how many of them are empty.
func leafStats(t *testing.T, tr *BTree) (leaves, empty int) {
	t.Helper()
	var reach []*leafNode
	var walk func(n node)
	walk = func(n node) {
		if n.isLeaf() {
			reach = append(reach, n.(*leafNode))
			return
		}
		in := n.(*innerNode)
		if len(in.children) != in.len()+1 {
			t.Fatalf("inner node has %d children for %d separators", len(in.children), in.len())
		}
		for _, c := range in.children {
			walk(c)
		}
	}
	walk(tr.root)
	for l := reach[0]; l != nil; l = l.next {
		if leaves >= len(reach) || reach[leaves] != l {
			t.Fatalf("leaf chain diverges from the tree at leaf %d", leaves)
		}
		if l.len() == 0 {
			empty++
		}
		leaves++
	}
	if leaves != len(reach) {
		t.Fatalf("leaf chain has %d leaves, tree reaches %d", leaves, len(reach))
	}
	return leaves, empty
}

// TestBTreeFIFOReclaimsLeaves drives the NEW_ORDER pattern: each of ten
// districts appends ascending order numbers and consumes its oldest. A
// leaf a Delete empties must be unlinked, so the tree's size follows the
// live entries (1000 here), not the 150k ever inserted.
func TestBTreeFIFOReclaimsLeaves(t *testing.T) {
	const districts, window, orders = 10, 100, 15_000
	tr := NewBTree()
	kb := NewKeyBuilder(8)
	key := func(d, o int) []byte { return kb.Reset().Int32(int32(d)).Int32(int32(o)).Bytes() }
	for o := 0; o < orders; o++ {
		for d := 0; d < districts; d++ {
			tr.InsertMulti(key(d, o), slotOf(o+1))
			if o < window {
				continue
			}
			if !tr.Delete(key(d, o-window), slotOf(o-window+1)) {
				t.Fatalf("delete of (%d, %d) found nothing", d, o-window)
			}
			if s, ok := tr.GetOne(key(d, o-window+1)); !ok || s != slotOf(o-window+2) {
				t.Fatalf("oldest order of district %d: %v, %v", d, s, ok)
			}
		}
	}
	if tr.Len() != districts*window {
		t.Fatalf("Len = %d, want %d", tr.Len(), districts*window)
	}
	n := 0
	tr.Scan(nil, nil, func(k []byte, s storage.TupleSlot) bool {
		d, o := n/window, orders-window+n%window
		if !bytes.Equal(k, key(d, o)) || s != slotOf(o+1) {
			t.Fatalf("entry %d = (%x, %d), want (%x, %d)", n, k, s, key(d, o), slotOf(o+1))
		}
		n++
		return true
	})
	leaves, empty := leafStats(t, tr)
	t.Logf("%d leaves, %d empty", leaves, empty)
	if empty > 0 || leaves > 4*districts*window/maxLeafEntries+districts {
		t.Fatalf("%d leaves (%d empty) hold %d entries", leaves, empty, tr.Len())
	}
	// Draining the tree leaves one empty root leaf.
	for d := 0; d < districts; d++ {
		for o := orders - window; o < orders; o++ {
			tr.Delete(key(d, o), 0)
		}
	}
	if leaves, _ := leafStats(t, tr); leaves != 1 || tr.Len() != 0 || !tr.root.isLeaf() {
		t.Fatalf("drained tree: %d leaves, %d entries", leaves, tr.Len())
	}
}
