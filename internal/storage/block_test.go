package storage

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
)

func testBlock(t *testing.T) (*Registry, *Block) {
	t.Helper()
	reg := NewRegistry()
	layout, err := NewBlockLayout([]AttrDef{FixedAttr(8), VarlenAttr(), FixedAttr(4)})
	if err != nil {
		t.Fatal(err)
	}
	return reg, NewBlock(reg, layout)
}

func TestBlockSlotAllocation(t *testing.T) {
	_, b := testBlock(t)
	s1, ok := b.TryAllocateSlot()
	if !ok || s1 != 0 {
		t.Fatalf("first slot = %d ok=%v", s1, ok)
	}
	s2, _ := b.TryAllocateSlot()
	if s2 != 1 {
		t.Fatalf("second slot = %d", s2)
	}
	b.SetInsertHead(b.Layout.NumSlots)
	if _, ok := b.TryAllocateSlot(); ok {
		t.Fatal("full block allocated a slot")
	}
}

func TestBlockConcurrentSlotAllocation(t *testing.T) {
	_, b := testBlock(t)
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	slots := make([][]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s, ok := b.TryAllocateSlot()
				if ok {
					slots[w] = append(slots[w], s)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint32]bool)
	for _, ws := range slots {
		for _, s := range ws {
			if seen[s] {
				t.Fatalf("slot %d allocated twice", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("allocated %d slots, want %d", len(seen), workers*perWorker)
	}
}

func TestBlockFixedReadWrite(t *testing.T) {
	_, b := testBlock(t)
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], 0xDEADBEEFCAFE)
	b.WriteFixed(0, 7, v[:])
	if !b.IsValid(0, 7) {
		t.Fatal("written attr not valid")
	}
	if got := binary.LittleEndian.Uint64(b.AttrBytes(0, 7)); got != 0xDEADBEEFCAFE {
		t.Fatalf("read back %x", got)
	}
	b.WriteNull(0, 7)
	if b.IsValid(0, 7) {
		t.Fatal("null attr still valid")
	}
	for _, x := range b.AttrBytes(0, 7) {
		if x != 0 {
			t.Fatal("null storage not zeroed")
		}
	}
}

func TestBlockVarlenInline(t *testing.T) {
	_, b := testBlock(t)
	val := []byte("short-12byte") // exactly 12 bytes: inline
	b.WriteVarlen(1, 3, val)
	if got := b.ReadVarlen(1, 3); !bytes.Equal(got, val) {
		t.Fatalf("inline read %q", got)
	}
	if b.ArenaSize() != 0 {
		t.Fatal("inline value spilled to arena")
	}
	if !bytes.Equal(b.VarlenPrefix(1, 3), val[:4]) {
		t.Fatal("prefix wrong")
	}
}

func TestBlockVarlenSpilled(t *testing.T) {
	_, b := testBlock(t)
	val := []byte("this-value-is-definitely-longer-than-twelve")
	b.WriteVarlen(1, 3, val)
	if got := b.ReadVarlen(1, 3); !bytes.Equal(got, val) {
		t.Fatalf("spilled read %q", got)
	}
	if b.ArenaSize() != 1 {
		t.Fatalf("arena size = %d", b.ArenaSize())
	}
	if !bytes.Equal(b.VarlenPrefix(1, 3), val[:4]) {
		t.Fatal("prefix wrong")
	}
	// Overwrite with another value: constant-time, appends to arena.
	val2 := []byte("a-second-rather-long-value-for-the-slot")
	b.WriteVarlen(1, 3, val2)
	if got := b.ReadVarlen(1, 3); !bytes.Equal(got, val2) {
		t.Fatalf("after update read %q", got)
	}
	if b.ArenaSize() != 2 {
		t.Fatalf("arena size after update = %d", b.ArenaSize())
	}
}

func TestBlockVarlenEmpty(t *testing.T) {
	_, b := testBlock(t)
	b.WriteVarlen(1, 0, nil)
	if got := b.ReadVarlen(1, 0); len(got) != 0 {
		t.Fatalf("empty varlen read %q", got)
	}
}

func TestBlockStateMachine(t *testing.T) {
	_, b := testBlock(t)
	if b.State() != StateHot {
		t.Fatalf("initial state %s", b.State())
	}
	if !b.CASState(StateHot, StateCooling) {
		t.Fatal("hot->cooling failed")
	}
	// User transaction preempts cooling.
	b.MarkHot()
	if b.State() != StateHot {
		t.Fatalf("after MarkHot: %s", b.State())
	}
	// Freeze path.
	b.SetState(StateFreezing)
	done := make(chan struct{})
	go func() {
		b.MarkHot() // must wait for freezing to finish
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("MarkHot returned while freezing")
	default:
	}
	b.SetState(StateFrozen)
	<-done
	if b.State() != StateHot {
		t.Fatalf("after freeze+markhot: %s", b.State())
	}
}

func TestBlockInPlaceReaders(t *testing.T) {
	_, b := testBlock(t)
	if b.BeginInPlaceRead() {
		t.Fatal("in-place read allowed on hot block")
	}
	b.SetState(StateFrozen)
	if !b.BeginInPlaceRead() {
		t.Fatal("in-place read refused on frozen block")
	}
	// A writer flipping the block hot must wait for the reader.
	flipped := make(chan struct{})
	go func() {
		b.MarkHot()
		close(flipped)
	}()
	select {
	case <-flipped:
		t.Fatal("MarkHot did not wait for reader")
	default:
	}
	b.EndInPlaceRead()
	<-flipped
	// Once hot, new in-place reads fail.
	if b.BeginInPlaceRead() {
		t.Fatal("in-place read allowed after MarkHot")
	}
}

func TestBlockVersionChain(t *testing.T) {
	_, b := testBlock(t)
	if b.VersionPtr(0) != nil {
		t.Fatal("fresh slot has version")
	}
	r1 := &UndoRecord{Slot: NewTupleSlot(b.ID, 0), Kind: KindInsert}
	if !b.CASVersionPtr(0, nil, r1) {
		t.Fatal("CAS install failed")
	}
	r2 := &UndoRecord{Slot: NewTupleSlot(b.ID, 0), Kind: KindUpdate}
	r2.SetNext(r1)
	if !b.CASVersionPtr(0, r1, r2) {
		t.Fatal("CAS chain failed")
	}
	if b.CASVersionPtr(0, r1, r2) {
		t.Fatal("stale CAS succeeded")
	}
	if b.VersionPtr(0) != r2 || b.VersionPtr(0).Next() != r1 {
		t.Fatal("chain order wrong")
	}
	if !b.HasActiveVersions() {
		t.Fatal("HasActiveVersions false with a chain")
	}
	b.SetVersionPtr(0, nil)
	if b.HasActiveVersions() {
		t.Fatal("HasActiveVersions true after clear")
	}
}

func TestBlockAllocatedBitmap(t *testing.T) {
	_, b := testBlock(t)
	for i := uint32(0); i < 10; i++ {
		s, _ := b.TryAllocateSlot()
		b.SetAllocated(s, true)
	}
	b.SetAllocated(4, false)
	b.SetAllocated(7, false)
	if b.FilledSlots() != 8 {
		t.Fatalf("FilledSlots = %d", b.FilledSlots())
	}
	if b.EmptySlotsIn(10) != 2 {
		t.Fatalf("EmptySlotsIn = %d", b.EmptySlotsIn(10))
	}
	var visited []uint32
	b.IterateAllocated(func(s uint32) bool { visited = append(visited, s); return true })
	if len(visited) != 8 {
		t.Fatalf("IterateAllocated visited %v", visited)
	}
	for _, s := range visited {
		if s == 4 || s == 7 {
			t.Fatalf("visited deallocated slot %d", s)
		}
	}
}

func TestBlockFrozenValidityRoundTrip(t *testing.T) {
	_, b := testBlock(t)
	const rows = 100
	for i := uint32(0); i < rows; i++ {
		if i%3 == 0 {
			b.WriteNull(0, i)
		} else {
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], uint64(i))
			b.WriteFixed(0, i, v[:])
		}
	}
	bm := b.WriteFrozenValidity(0, rows)
	for i := 0; i < rows; i++ {
		want := i%3 != 0
		if bm.Test(i) != want {
			t.Fatalf("frozen validity bit %d = %v", i, bm.Test(i))
		}
	}
	if got := bm.CountOnes(rows); got != rows-34 {
		t.Fatalf("ones = %d", got)
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

// TestArenaHeapPerSpilledValue bounds the heap the hot arena costs per
// 24-byte spilled value — the restore path writes one per row of a table
// with a short string column. One owned allocation per value plus its
// slice header in the arena cost ~44 B; slabs cost the bytes plus the
// unfilled end of the last slab. Not parallel: it reads the process heap.
func TestArenaHeapPerSpilledValue(t *testing.T) {
	reg := NewRegistry()
	layout, err := NewBlockLayout([]AttrDef{VarlenAttr()})
	if err != nil {
		t.Fatal(err)
	}
	blocks := []*Block{NewBlock(reg, layout), NewBlock(reg, layout)}
	val := []byte("pad-00000000000000000000")
	before := liveHeap()
	n := 0
	for _, b := range blocks {
		for slot := uint32(0); slot < layout.NumSlots; slot++ {
			b.WriteVarlen(0, slot, val)
			n++
		}
	}
	perValue := (liveHeap() - before) / float64(n)
	runtime.KeepAlive(blocks)
	if got := blocks[1].ReadVarlen(0, layout.NumSlots-1); !bytes.Equal(got, val) {
		t.Fatalf("last value reads %q", got)
	}
	t.Logf("%d values, %.1f B/value", n, perValue)
	if perValue > 30 {
		t.Fatalf("hot arena costs %.1f B per %d-byte value, want <= 30", perValue, len(val))
	}
}

// TestArenaSlabBoundaries reads back, through ReadVarlen, values that do
// not fit the rest of their slab (so they start the next one) and values
// larger than the largest slab (so they get one of their own), and checks
// that appending to a returned value cannot overwrite its neighbour.
func TestArenaSlabBoundaries(t *testing.T) {
	_, b := testBlock(t)
	sizes := []int{13, 200, 100, maxArenaSlab + 1, 40, minArenaSlab, 2*maxArenaSlab + 7, 13, maxArenaSlab}
	for i := 0; len(sizes) < 400; i++ {
		sizes = append(sizes, 13+(i*97)%700)
	}
	want := make([][]byte, len(sizes))
	for i, n := range sizes {
		want[i] = make([]byte, n)
		for j := range want[i] {
			want[i][j] = byte(i + j)
		}
		b.WriteVarlen(1, uint32(i), want[i])
	}
	if b.ArenaSize() != len(sizes) {
		t.Fatalf("ArenaSize = %d, want %d", b.ArenaSize(), len(sizes))
	}
	unfilled := 0
	for _, s := range b.arenaSlabs[:len(b.arenaSlabs)-1] {
		if len(s) < cap(s) {
			unfilled++
		}
		if cap(s) > maxArenaSlab && len(s) != cap(s) {
			t.Fatalf("oversized slab holds %d of %d bytes", len(s), cap(s))
		}
	}
	if unfilled == 0 {
		t.Fatal("no value started a new slab before its predecessor was full")
	}
	for i := range sizes {
		if got := b.ReadVarlen(1, uint32(i)); !bytes.Equal(got, want[i]) {
			t.Fatalf("ReadVarlen of value %d (%d bytes) differs", i, sizes[i])
		}
	}
	_ = append(b.ReadVarlen(1, 0), 0xEE, 0xEE, 0xEE, 0xEE)
	if got := b.ReadVarlen(1, 1); !bytes.Equal(got, want[1]) {
		t.Fatal("append to a read value overwrote the next one")
	}
	b.ReleaseArena()
	if b.ArenaSize() != 0 {
		t.Fatalf("ArenaSize after release = %d", b.ArenaSize())
	}
}
