package storage

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mainline/internal/util"
)

// BlockState is the lifecycle flag coordinating user transactions, in-place
// readers, and the background transformation process (paper §4.1–§4.3).
//
//	Hot      — relaxed format, may contain gaps and arena varlens; all reads
//	           materialize through the version chain.
//	Cooling  — the transformer intends to freeze; user transactions may
//	           preempt back to Hot by CAS.
//	Freezing — exclusive lock held by the gather phase; writers wait.
//	Frozen   — canonical Arrow; readers access in place under the reader
//	           counter; the first writer flips the block back to Hot.
//	Thawing  — transient Frozen->Hot transition: the flipping writer drains
//	           lingering in-place readers while later writers wait. Without
//	           it, a second writer could observe Hot and update in place
//	           while a frozen-path reader (which performs no version
//	           checks) still held the reader counter — a snapshot
//	           violation the whole-block batch scans made readily
//	           observable.
type BlockState uint32

// Block lifecycle states.
const (
	StateHot BlockState = iota
	StateCooling
	StateFreezing
	StateFrozen
	StateThawing
)

// String names the state.
func (s BlockState) String() string {
	switch s {
	case StateHot:
		return "hot"
	case StateCooling:
		return "cooling"
	case StateFreezing:
		return "freezing"
	case StateFrozen:
		return "frozen"
	case StateThawing:
		return "thawing"
	default:
		return "invalid"
	}
}

// FrozenVarlen holds the canonical Arrow buffers for one variable-length
// column of a frozen block, produced by the gather phase: length+1 int32
// offsets and the contiguous values they index (paper Figure 3).
type FrozenVarlen struct {
	Offsets []byte // (n+1) little-endian int32, 8-byte padded
	Values  []byte // contiguous value bytes, 8-byte padded
}

// FrozenDict holds the dictionary-compressed form of a varlen column — the
// paper's alternative gather target (§4.4): a sorted dictionary plus one
// int32 code per tuple, as found in Parquet/ORC.
type FrozenDict struct {
	Codes       []byte // n little-endian int32 codes, 8-byte padded
	DictOffsets []byte // (m+1) int32 offsets into DictValues, 8-byte padded
	DictValues  []byte // sorted unique values, concatenated
	NumEntries  int    // m, the dictionary cardinality (padding-safe)
}

// Block is one 1 MB storage unit of a table. All tuple data lives in the
// raw buffer laid out per the table's BlockLayout; transactional metadata —
// version-chain heads, the allocation bitmap, per-column validity — lives in
// adjacent atomic structures (Go cannot hide pointers inside byte buffers;
// see DESIGN.md). The gather phase serializes validity into the buffer's
// reserved bitmap regions so frozen blocks expose Arrow-compliant memory.
type Block struct {
	// ID is the registry-issued identifier packed into TupleSlots.
	ID uint64
	// Layout describes the block's columns; shared across the table.
	Layout *BlockLayout

	buf   []byte
	state atomic.Uint32
	// readers counts in-place readers of a frozen block; it acts as a
	// reader-writer lock together with the state flag (paper Figure 7).
	readers atomic.Int32
	// insertHead is the next never-used slot; user inserts only append.
	insertHead atomic.Uint32

	// versions holds the version-chain head per slot — the paper's extra
	// Arrow column of physical pointers, invisible to external readers.
	versions []atomic.Pointer[UndoRecord]
	// allocated marks slots holding a live latest-version tuple. Deletes
	// clear it; older readers reconstruct existence from the chain.
	allocated util.AtomicBitmap
	// validity marks non-null attributes, one bitmap per column.
	validity []util.AtomicBitmap

	// arenaMu guards the hot varlen arena (see arenaAppend): the slab
	// table that arena handles index (nil marks a free index), the free
	// indices later slabs reuse, the shared slab appends fill (-1 when
	// none), the count of values that entries name and the bytes the
	// table holds.
	arenaMu     sync.Mutex
	arenaSlabs  [][]byte
	arenaFree   []int
	arenaCur    int
	arenaValues int
	arenaBytes  int64
	// reg counts arena bytes across all blocks (Registry.ArenaBytes).
	reg *Registry

	// frozen gather outputs, one per column (nil for fixed-width columns).
	frozenVar []*FrozenVarlen
	// frozenDict holds dictionary-compressed columns when the transformer
	// ran in dictionary mode (nil otherwise).
	frozenDict []*FrozenDict
	// nullCounts per column, computed by the gather phase.
	nullCounts []int
	// frozenRows is the tuple count at freeze time (slots 0..frozenRows-1
	// are contiguous and present after compaction).
	frozenRows int

	// zoneMap holds freeze-time column statistics. Published (non-nil)
	// before the state flips to Frozen, invalidated when a writer flips
	// the block back to Hot; see ZoneMap for the pruning protocol.
	zoneMap atomic.Pointer[ZoneMap]

	// residency tracks whether a frozen block's buffers are in RAM or
	// evicted to the cold tier (see cold.go); orthogonal to state. A block
	// is born Resident.
	residency atomic.Uint32
	// coldRef names the object holding the evicted block's encoded
	// payload; non-nil from first eviction on (content-addressed, so a
	// stale ref after re-thaw + re-freeze is replaced at next eviction).
	coldRef atomic.Pointer[ColdRef]
	// sweepAge counts tier sweeps the block has stayed Frozen+Resident
	// through; the evictor demotes blocks whose age crosses its
	// threshold. Reset whenever a writer thaws the block.
	sweepAge atomic.Uint32
	// rewritten is a grow-only column mask (see Projection.Mask) of the columns whose bytes some
	// slot of the block has had rewritten after its first insert: an
	// Update marks its columns, and a refill of a recycled slot
	// (InsertIntoSlot) marks every column, each before its version-pointer
	// CAS. A column outside the mask holds, in every version of every
	// slot, the value the slot was first inserted with — which lets index
	// reads trust an entry's key without re-encoding it (see
	// core.TableIndex.check).
	rewritten atomic.Uint64
}

// NewBlock allocates a block for the layout and registers it.
func NewBlock(reg *Registry, layout *BlockLayout) *Block {
	n := int(layout.NumSlots)
	b := &Block{
		Layout:     layout,
		buf:        reg.pool.get(),
		arenaCur:   -1,
		reg:        reg,
		versions:   make([]atomic.Pointer[UndoRecord], n),
		allocated:  util.NewAtomicBitmap(n),
		validity:   make([]util.AtomicBitmap, layout.NumColumns()),
		frozenVar:  make([]*FrozenVarlen, layout.NumColumns()),
		frozenDict: make([]*FrozenDict, layout.NumColumns()),
		nullCounts: make([]int, layout.NumColumns()),
	}
	for i := range b.validity {
		b.validity[i] = util.NewAtomicBitmap(n)
	}
	b.ID = reg.Register(b)
	return b
}

// --- State machine ----------------------------------------------------------

// State returns the current lifecycle state.
func (b *Block) State() BlockState { return BlockState(b.state.Load()) }

// CASState transitions from -> to atomically; reports success.
func (b *Block) CASState(from, to BlockState) bool {
	return b.state.CompareAndSwap(uint32(from), uint32(to))
}

// SetState forcibly stores the state (used by the transformer inside its
// exclusive critical section and by recovery).
func (b *Block) SetState(s BlockState) { b.state.Store(uint32(s)) }

// BeginInPlaceRead registers an in-place reader if the block is frozen.
// Returns true on success; the caller must pair with EndInPlaceRead. The
// counter-then-recheck dance closes the race with a writer flipping the
// block hot between the state check and the increment.
func (b *Block) BeginInPlaceRead() bool {
	b.readers.Add(1)
	if b.State() == StateFrozen {
		return true
	}
	b.readers.Add(-1)
	return false
}

// EndInPlaceRead releases an in-place reader registration.
func (b *Block) EndInPlaceRead() { b.readers.Add(-1) }

// MarkHot transitions the block to Hot before a write, whatever state it is
// in: Cooling is preempted by CAS, Frozen goes through the transient
// Thawing state while lingering in-place readers drain, Freezing and
// Thawing must be waited out (both critical sections are bounded).
//
// The Thawing hold is what makes frozen in-place reads safe: no writer —
// neither the flipping one nor any later one — can reach the Hot state
// (and thus write in place) until every reader that entered under the
// Frozen state has left. New readers cannot enter once the state leaves
// Frozen.
func (b *Block) MarkHot() {
	for {
		switch b.State() {
		case StateHot:
			return
		case StateCooling:
			if b.CASState(StateCooling, StateHot) {
				return
			}
		case StateFrozen:
			if b.CASState(StateFrozen, StateThawing) {
				// The freeze-time statistics no longer describe the block
				// once a write lands; drop them before any write proceeds.
				b.zoneMap.Store(nil)
				b.sweepAge.Store(0)
				// Drain lingering in-place readers (paper §4.1) before the
				// block becomes writable for anyone.
				for b.readers.Load() > 0 {
					runtime.Gosched()
				}
				b.SetState(StateHot)
				return
			}
		case StateFreezing, StateThawing:
			runtime.Gosched()
		}
	}
}

// --- Slot management ---------------------------------------------------------

// TryAllocateSlot reserves the next never-used slot for insertion. Reports
// the slot offset, or false when the block is full. Reserved slots are not
// yet visible: the inserter must install the version chain and set the
// allocation bit.
func (b *Block) TryAllocateSlot() (uint32, bool) {
	for {
		cur := b.insertHead.Load()
		if cur >= b.Layout.NumSlots {
			return 0, false
		}
		if b.insertHead.CompareAndSwap(cur, cur+1) {
			return cur, true
		}
	}
}

// InsertHead returns the next never-used slot offset (== number of slots
// ever allocated).
func (b *Block) InsertHead() uint32 { return b.insertHead.Load() }

// SetInsertHead forces the insertion head; the compactor uses it when
// rebuilding a block's occupancy, and tests use it to fabricate states.
func (b *Block) SetInsertHead(v uint32) { b.insertHead.Store(v) }

// Allocated reports whether slot holds a live latest-version tuple.
func (b *Block) Allocated(slot uint32) bool { return b.allocated.Test(int(slot)) }

// SetAllocated toggles the allocation bit for slot.
func (b *Block) SetAllocated(slot uint32, v bool) { b.allocated.Assign(int(slot), v) }

// MarkRewritten adds mask (a column mask) to the block's rewritten columns.
// Writers call it before publishing the version that rewrites them.
func (b *Block) MarkRewritten(mask uint64) {
	// Most updates find their columns marked already; a plain load keeps
	// them from contending on the block's cache line.
	if b.rewritten.Load()&mask != mask {
		b.rewritten.Or(mask)
	}
}

// Rewritten returns the column mask of the columns rewritten in place since the
// block was created (see the rewritten field).
func (b *Block) Rewritten() uint64 { return b.rewritten.Load() }

// FilledSlots counts allocated slots.
func (b *Block) FilledSlots() int { return b.allocated.CountOnes(int(b.Layout.NumSlots)) }

// EmptySlotsIn counts unallocated slots among the first n.
func (b *Block) EmptySlotsIn(n int) int { return n - b.allocated.CountOnes(n) }

// IterateAllocated visits allocated slots in [0, InsertHead).
func (b *Block) IterateAllocated(fn func(slot uint32) bool) {
	n := int(b.InsertHead())
	b.allocated.IterateSet(n, func(i int) bool { return fn(uint32(i)) })
}

// VersionPtr loads the version-chain head for slot.
func (b *Block) VersionPtr(slot uint32) *UndoRecord { return b.versions[slot].Load() }

// CASVersionPtr installs rec as the new chain head if the head is still old.
func (b *Block) CASVersionPtr(slot uint32, old, rec *UndoRecord) bool {
	return b.versions[slot].CompareAndSwap(old, rec)
}

// SetVersionPtr stores the chain head unconditionally (GC truncation of a
// fully-invisible chain).
func (b *Block) SetVersionPtr(slot uint32, rec *UndoRecord) { b.versions[slot].Store(rec) }

// HasActiveVersions reports whether any slot still carries a version chain —
// the gather phase's "single-pass scan" for concurrent modification (§4.3).
func (b *Block) HasActiveVersions() bool {
	for i := range b.versions {
		if b.versions[i].Load() != nil {
			return true
		}
	}
	return false
}

// --- Attribute access ---------------------------------------------------------
//
// Hot in-place attribute bytes have one writer and one reader. The writer
// is WriteRow (WriteTuple for inserts), which Insert, InsertIntoSlot,
// Update and transaction abort all call after publishing their undo
// record. The reader is core's copyInPlace, the paper's copy-and-recheck
// (§3.1–3.2): it copies a projection of one slot and reports whether the
// version pointer held still, and core's applyChain then applies the
// before-images of the versions too new for the reader's snapshot. Select,
// hot-block scans, before-images and index pre-images all go through them.
// Readers of blocks no writer can reach read directly: core's readCold
// (an evicted block's cached batch), core's LoadBatch (bootstrap, no
// concurrent reader), transform's gather.go and zonemap.go (Freezing
// blocks) and tier's Manager (Frozen or Evicted blocks).

// fixedRegion returns the whole data region of column col.
func (b *Block) fixedRegion(col ColumnID) []byte {
	off := b.Layout.dataOff[col]
	size := b.Layout.AttrSize(col)
	return b.buf[off : off+int(b.Layout.NumSlots)*size]
}

// AttrBytes returns the in-block bytes of (col, slot): the fixed value for
// fixed-width columns or the 16-byte VarlenEntry for varlen columns.
func (b *Block) AttrBytes(col ColumnID, slot uint32) []byte {
	size := b.Layout.AttrSize(col)
	off := b.Layout.dataOff[col] + int(slot)*size
	return b.buf[off : off+size]
}

// IsValid reports the validity (non-null) bit of (col, slot).
func (b *Block) IsValid(col ColumnID, slot uint32) bool {
	return b.validity[col].Test(int(slot))
}

// SetValid assigns the validity bit of (col, slot).
func (b *Block) SetValid(col ColumnID, slot uint32, v bool) {
	b.validity[col].Assign(int(slot), v)
}

// WriteRow stores row's values into slot in place; columns row does not
// project keep their bytes. Callers publish the version the write belongs
// to first, so a reader that copies torn bytes finds it on the chain.
// Dedicated arena slabs the write unlinks go to rel (see WriteVarlen).
func (b *Block) WriteRow(slot uint32, row *ProjectedRow, rel *RetiredSlabs) {
	for i, col := range row.P.Cols {
		switch {
		case row.IsNull(i):
			b.WriteNull(col, slot, rel)
		case row.P.IsVarlenAt(i):
			b.WriteVarlen(col, slot, row.Varlen(i), rel)
		default:
			b.WriteFixed(col, slot, row.FixedBytes(i))
		}
	}
}

// WriteTuple writes a whole tuple into slot: WriteRow, and null for every
// column row does not project.
func (b *Block) WriteTuple(slot uint32, row *ProjectedRow, rel *RetiredSlabs) {
	b.WriteRow(slot, row, rel)
	if row.P.NumCols() == b.Layout.NumColumns() {
		return
	}
	for c := range b.Layout.NumColumns() {
		if row.P.IndexOf(ColumnID(c)) < 0 {
			b.WriteNull(ColumnID(c), slot, rel)
		}
	}
}

// WriteFixed stores raw fixed-width bytes into (col, slot) and marks it
// valid. src length must equal the attribute size.
func (b *Block) WriteFixed(col ColumnID, slot uint32, src []byte) {
	copy(b.AttrBytes(col, slot), src)
	b.SetValid(col, slot, true)
}

// WriteNull marks (col, slot) null and zeroes its storage so gathered Arrow
// buffers are deterministic. A dedicated slab the old value had goes to
// rel (see WriteVarlen).
func (b *Block) WriteNull(col ColumnID, slot uint32, rel *RetiredSlabs) {
	dst := b.AttrBytes(col, slot)
	if b.Layout.IsVarlen(col) {
		b.unlinkEntry(dst, rel)
	}
	clear(dst)
	b.SetValid(col, slot, false)
}

// WriteVarlen stores a variable-length value into (col, slot): inline when
// it fits 12 bytes, otherwise spilled to the block's hot arena. This is the
// relaxed format's constant-time varlen update (§4.1). When the old value
// had a dedicated slab, the slab goes to rel, whose owner releases it once
// no reader can still hold the old entry's handle: the writing
// transaction, after the GC's unlink epoch (§3.3). A nil rel (bootstrap
// loads of fresh slots, tests) keeps the slab until the arena retires.
func (b *Block) WriteVarlen(col ColumnID, slot uint32, val []byte, rel *RetiredSlabs) {
	entry := b.AttrBytes(col, slot)
	if len(val) <= VarlenInlineLimit {
		b.unlinkEntry(entry, rel)
		varlenEntryPutInline(entry, val)
	} else {
		b.arenaMu.Lock()
		b.arenaUnlink(entry, rel)
		h := b.arenaAppend(val)
		b.arenaMu.Unlock()
		varlenEntryPutSpilled(entry, uint32(len(val)), val[:4], h)
	}
	b.SetValid(col, slot, true)
}

// ReadVarlen resolves the variable-length value of (col, slot). The result
// aliases block-owned memory and is capped at the value's end. A value of
// at most VarlenInlineLimit bytes sits inline in the 16-byte entry of the
// pooled block buffer, which a later writer may overwrite in place, so a
// reader that keeps it copies it (ProjectedRow.SetVarlenFromBlock). A
// longer value lives in immutable backing — a hot-arena slab or a frozen
// values buffer, neither moved nor written after publication — and may be
// kept by reference for as long as it is held. Releasing a slab (see
// RetiredSlabs) only removes it from the block's table and never writes
// it, so the Go runtime keeps the bytes of a held reference alive.
func (b *Block) ReadVarlen(col ColumnID, slot uint32) []byte {
	entry := b.AttrBytes(col, slot)
	if varlenEntryIsInline(entry) {
		return varlenEntryInline(entry)
	}
	size := varlenEntrySize(entry)
	h := varlenEntryHandle(entry)
	if handleIsFrozen(h) {
		off := handleValue(h)
		fv := b.frozenVar[col]
		// Bounds-check rather than trust the entry: a hot reader racing an
		// in-place writer can observe a torn entry; the version chain's
		// before-image repairs its copy, this just keeps the read safe.
		end := off + uint64(size)
		if fv == nil || end > uint64(len(fv.Values)) {
			return nil
		}
		return fv.Values[off:end:end]
	}
	return b.arenaValue(h, size)
}

// arenaValue resolves an arena handle, or returns nil when the handle
// names no live bytes (a torn entry; see ReadVarlen).
func (b *Block) arenaValue(h uint64, size uint32) []byte {
	slab, off := arenaHandleSlab(h), arenaHandleOffset(h)
	end := off + uint64(size)
	b.arenaMu.Lock()
	var v []byte
	if slab < uint64(len(b.arenaSlabs)) && end <= uint64(len(b.arenaSlabs[slab])) {
		v = b.arenaSlabs[slab][off:end:end]
	}
	b.arenaMu.Unlock()
	return v
}

// Hot arena slab sizes: the first shared slab is small, each next one
// doubles up to the cap, so a block with few spilled values holds little
// slack and a full one wastes at most part of its last slab.
//
// A spilled value of at least DedicatedSlabMin bytes gets a slab of its
// own instead, which its block can release once the value is overwritten:
// bytes inside a shared slab can never be reused, because readers may keep
// them by reference (ReadVarlen), and compacting a slab would need
// exclusive access to a block that writers update. Below the threshold a
// value shares slabs: a slab of its own would cost a table entry and an
// allocation of about its own size, and short values are seldom the ones
// rewritten in bulk. 128 bytes keeps every value of a TPC-C string column
// of 50 bytes or less, and short payloads like YCSB's, in shared slabs,
// and gives the large rewritten ones (c_data, 300–500 bytes) their own.
const (
	minArenaSlab     = 256
	maxArenaSlab     = 32 << 10
	DedicatedSlabMin = 128
)

// arenaAppend copies val into the arena and returns its handle: into a
// dedicated slab when it is at least DedicatedSlabMin bytes, else into the
// current shared slab, starting a new one when it does not fit. A value
// never straddles slabs and is never moved. Caller holds arenaMu.
func (b *Block) arenaAppend(val []byte) uint64 {
	b.arenaValues++
	if len(val) >= DedicatedSlabMin {
		slab := make([]byte, len(val))
		copy(slab, val)
		return makeArenaHandle(b.arenaAdd(slab), 0)
	}
	if b.arenaCur < 0 || cap(b.arenaSlabs[b.arenaCur])-len(b.arenaSlabs[b.arenaCur]) < len(val) {
		size := minArenaSlab
		if b.arenaCur >= 0 {
			size = min(2*cap(b.arenaSlabs[b.arenaCur]), maxArenaSlab)
		}
		b.arenaCur = b.arenaAdd(make([]byte, 0, size))
	}
	cur := b.arenaSlabs[b.arenaCur]
	b.arenaSlabs[b.arenaCur] = append(cur, val...)
	return makeArenaHandle(b.arenaCur, len(cur))
}

// arenaAdd puts slab into the table, at a freed index when there is one,
// and returns its index. Caller holds arenaMu.
func (b *Block) arenaAdd(slab []byte) int {
	b.arenaHold(int64(cap(slab)))
	if n := len(b.arenaFree); n > 0 {
		i := b.arenaFree[n-1]
		b.arenaFree = b.arenaFree[:n-1]
		b.arenaSlabs[i] = slab
		return i
	}
	b.arenaSlabs = append(b.arenaSlabs, slab)
	return len(b.arenaSlabs) - 1
}

// arenaHold adds n (negative when slabs leave the table) to the bytes the
// block's arena holds, here and in the registry's totals. Caller holds
// arenaMu.
func (b *Block) arenaHold(n int64) {
	b.arenaBytes += n
	if b.reg != nil {
		b.reg.arenaHeld.Add(n)
		if n < 0 {
			b.reg.arenaReleased.Add(-n)
		}
	}
}

// entryInArena reports whether a varlen entry names a hot-arena value.
func entryInArena(entry []byte) bool {
	return !varlenEntryIsInline(entry) && !handleIsFrozen(varlenEntryHandle(entry))
}

// unlinkEntry is arenaUnlink for a caller that does not hold arenaMu.
func (b *Block) unlinkEntry(entry []byte, rel *RetiredSlabs) {
	if entryInArena(entry) {
		b.arenaMu.Lock()
		b.arenaUnlink(entry, rel)
		b.arenaMu.Unlock()
	}
}

// arenaUnlink accounts for an entry that is about to stop naming its arena
// value: the value no longer counts as live, and a dedicated slab goes to
// rel. Caller holds arenaMu.
func (b *Block) arenaUnlink(entry []byte, rel *RetiredSlabs) {
	if !entryInArena(entry) {
		return
	}
	b.arenaValues--
	size := varlenEntrySize(entry)
	if size < DedicatedSlabMin || rel == nil {
		return
	}
	h := varlenEntryHandle(entry)
	i := arenaHandleSlab(h)
	if i < uint64(len(b.arenaSlabs)) && arenaHandleOffset(h) == 0 && len(b.arenaSlabs[i]) == int(size) {
		*rel = append(*rel, RetiredSlab{block: b, idx: int(i), slab: b.arenaSlabs[i]})
	}
}

// RetiredSlab is one hot-arena slab that no entry names any more but that
// a reader may still resolve through a handle it copied earlier.
type RetiredSlab struct {
	block *Block
	idx   int
	slab  []byte
}

// RetiredSlabs lists arena slabs waiting out the readers that may still
// hold their handles. The owner calls Release once every transaction that
// was active when the slabs were retired has finished: a writing
// transaction's list is released by the GC with its undo records, a
// gather's through the GC's deferred actions.
type RetiredSlabs []RetiredSlab

// Release removes the listed slabs from their blocks' tables, so later
// slabs reuse their indices, and empties the list. A slab that already
// left its table (released twice, or its block's arena was dropped) is
// skipped. The slabs' bytes are never written again (see ReadVarlen).
func (r *RetiredSlabs) Release() {
	for _, s := range *r {
		s.block.dropSlab(s.idx, s.slab)
	}
	*r = nil
}

// dropSlab removes slab from the table if it still sits at index i.
func (b *Block) dropSlab(i int, slab []byte) {
	b.arenaMu.Lock()
	if i < len(b.arenaSlabs) && sameSlab(b.arenaSlabs[i], slab) {
		b.arenaSlabs[i] = nil
		b.arenaFree = append(b.arenaFree, i)
		b.arenaHold(-int64(cap(slab)))
	}
	b.arenaMu.Unlock()
}

// sameSlab reports whether a and b are the same non-empty slab.
func sameSlab(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// VarlenPrefix returns the entry's stored prefix for fast filtering without
// chasing the value (paper Figure 6).
func (b *Block) VarlenPrefix(col ColumnID, slot uint32) []byte {
	return varlenEntryPrefix(b.AttrBytes(col, slot))
}

// RewriteVarlenEntry re-encodes the entry of (col, slot) to reference the
// frozen values buffer at off. Gather-phase only (exclusive access).
func (b *Block) RewriteVarlenEntry(col ColumnID, slot uint32, val []byte, off int) {
	entry := b.AttrBytes(col, slot)
	if len(val) <= VarlenInlineLimit {
		varlenEntryPutInline(entry, val)
		return
	}
	varlenEntryPutSpilled(entry, uint32(len(val)), val[:4], makeFrozenHandle(off))
}

// ArenaSize reports the number of live hot-arena values: those that the
// block's entries name (observability and tests of reclamation).
func (b *Block) ArenaSize() int {
	b.arenaMu.Lock()
	defer b.arenaMu.Unlock()
	return b.arenaValues
}

// ArenaBytes reports the bytes the block's arena slab table holds,
// retired slabs not yet released included.
func (b *Block) ArenaBytes() int64 {
	b.arenaMu.Lock()
	defer b.arenaMu.Unlock()
	return b.arenaBytes
}

// RetireArena retires the whole hot arena once gather has rewritten every
// entry of the block's tuples to frozen storage. Gather-phase only
// (Freezing, so no writer runs): entries of unallocated slots that still
// name arena values are zeroed, so no entry names a retired slab, and the
// next spilled value starts a new shared slab. The slabs stay in the table
// because a hot reader may have copied an entry just before gather
// rewrote it; the caller releases the returned list once such readers are
// gone.
func (b *Block) RetireArena() RetiredSlabs {
	for c := range b.Layout.NumColumns() {
		col := ColumnID(c)
		if !b.Layout.IsVarlen(col) {
			continue
		}
		for s := range b.InsertHead() {
			if entry := b.AttrBytes(col, s); entryInArena(entry) {
				clear(entry)
			}
		}
	}
	b.arenaMu.Lock()
	defer b.arenaMu.Unlock()
	var rel RetiredSlabs
	for i, slab := range b.arenaSlabs {
		if slab != nil {
			rel = append(rel, RetiredSlab{block: b, idx: i, slab: slab})
		}
	}
	b.arenaCur, b.arenaValues = -1, 0
	return rel
}

// dropArena drops every slab at once; the registry calls it when the
// block is retired and no reader can reach the block.
func (b *Block) dropArena() {
	b.arenaMu.Lock()
	b.arenaHold(-b.arenaBytes)
	b.arenaSlabs, b.arenaFree, b.arenaCur, b.arenaValues = nil, nil, -1, 0
	b.arenaMu.Unlock()
}

// --- Frozen (canonical Arrow) accessors --------------------------------------

// SetFrozenMeta records gather outputs: the contiguous varlen buffers, null
// counts, and the frozen row count. Gather-phase only.
func (b *Block) SetFrozenMeta(rows int, frozenVar []*FrozenVarlen, nullCounts []int) {
	b.frozenRows = rows
	for i := range frozenVar {
		b.frozenVar[i] = frozenVar[i]
	}
	copy(b.nullCounts, nullCounts)
}

// FrozenRows returns the tuple count recorded at freeze time.
func (b *Block) FrozenRows() int { return b.frozenRows }

// NullCount returns the gather-computed null count for col.
func (b *Block) NullCount(col ColumnID) int { return b.nullCounts[col] }

// FrozenVarlenCol returns the canonical Arrow buffers for a varlen column.
func (b *Block) FrozenVarlenCol(col ColumnID) *FrozenVarlen { return b.frozenVar[col] }

// SetFrozenDict records a dictionary-compressed column. Gather-phase only.
func (b *Block) SetFrozenDict(col ColumnID, d *FrozenDict) { b.frozenDict[col] = d }

// SetFrozenVarlenAlias publishes the frozen values buffer for col before
// entries are rewritten to reference it, so concurrent readers resolve
// frozen handles mid-gather (§4.3: reads proceed during the critical
// section).
func (b *Block) SetFrozenVarlenAlias(col ColumnID, fv *FrozenVarlen) { b.frozenVar[col] = fv }

// FrozenDictCol returns the dictionary form of a varlen column, or nil if
// the column was gathered without compression.
func (b *Block) FrozenDictCol(col ColumnID) *FrozenDict { return b.frozenDict[col] }

// SetZoneMap publishes freeze-time column statistics. Gather-phase only;
// must happen before the state flips to Frozen.
func (b *Block) SetZoneMap(zm *ZoneMap) { b.zoneMap.Store(zm) }

// ZoneMap returns the block's freeze-time statistics, or nil when the block
// is (or recently was) hot. Callers pruning on it must observe
// State() == Frozen BEFORE loading the map: in that order the map is
// either the same freeze epoch as the observed state or a newer one, and
// both correctly describe the data visible to any transaction active
// across the freeze (see the type comment).
func (b *Block) ZoneMap() *ZoneMap { return b.zoneMap.Load() }

// FrozenFixedData returns the column's value buffer covering the first
// FrozenRows tuples — raw block memory, zero-copy.
func (b *Block) FrozenFixedData(col ColumnID) []byte {
	size := b.Layout.AttrSize(col)
	return b.fixedRegion(col)[:b.frozenRows*size]
}

// WriteFrozenValidity serializes column col's atomic validity bits for the
// first rows slots into the block's reserved bitmap region and returns the
// Arrow-compliant bytes. Gather-phase only.
func (b *Block) WriteFrozenValidity(col ColumnID, rows int) util.Bitmap {
	dst := util.Bitmap(b.buf[b.Layout.validOff[col] : b.Layout.validOff[col]+util.BitmapBytes(int(b.Layout.NumSlots))])
	b.validity[col].SnapshotInto(dst, rows)
	return dst[:util.BitmapBytes(rows)]
}

// FrozenValidity returns the serialized validity bitmap region for col.
func (b *Block) FrozenValidity(col ColumnID) util.Bitmap {
	off := b.Layout.validOff[col]
	return util.Bitmap(b.buf[off : off+util.BitmapBytes(b.frozenRows)])
}
