package storage

import "runtime"

// Cold-tier residency: a frozen block's buffers can be evicted to an
// object store and fetched back on demand. Residency is a second, small
// state machine orthogonal to the freeze lifecycle — the state flag keeps
// answering "is the content canonical Arrow?" while residency answers
// "are the bytes in RAM?".
//
//	Resident  — buffers in RAM; all existing paths work unchanged.
//	Evicted   — buf and the frozen varlen/dict buffers are dropped; the
//	            block lives at ColdRef in the object store as the Arrow
//	            IPC stream of its export batch (schema + one record
//	            batch), the same format as a checkpoint chunk.
//	            Metadata that pruning and visibility need — the zone map,
//	            allocation/validity bitmaps, frozenRows, nullCounts, the
//	            (empty) version-chain array — stays in RAM.
//	Rethawing — one writer is fetching + reinstalling buffers ahead of a
//	            thaw; others wait.
//
// Eviction protocol (tier.Manager.EvictBlock): CAS Frozen->Freezing (the
// same exclusive lock the gather phase uses — writers wait in MarkHot,
// new in-place readers bounce), drain readers, encode + upload, set
// ColdRef, set residency Evicted, THEN restore state Frozen. Readers
// order their checks the other way (BeginInPlaceRead, then Resident), so
// a reader that slips in after the state restore always sees Evicted and
// takes the cold path; a reader that entered before the eviction began
// was drained out first. The in-RAM buffers are dropped via the GC's
// deferred-action epoch, not synchronously — hot-path readers that
// observed Freezing and fell back to version-chain reads may still hold
// slices into buf.
type Residency uint32

// Residency states.
const (
	ResidencyResident Residency = iota
	ResidencyEvicted
	ResidencyRethawing
)

// String names the residency state.
func (r Residency) String() string {
	switch r {
	case ResidencyResident:
		return "resident"
	case ResidencyEvicted:
		return "evicted"
	case ResidencyRethawing:
		return "rethawing"
	default:
		return "invalid"
	}
}

// ColdRef names the object holding an evicted block and guards its bytes:
// a fetch checks Size and CRC before it decodes.
type ColdRef struct {
	// Key is the content-hash object key ("blk/<hex sha-256>").
	Key string
	// Size is the object's length in bytes.
	Size int64
	// CRC is the object's CRC-32C.
	CRC uint32
}

// Residency returns the block's current residency state.
func (b *Block) Residency() Residency { return Residency(b.residency.Load()) }

// Resident reports whether the block's buffers are in RAM.
func (b *Block) Resident() bool { return b.Residency() == ResidencyResident }

// CASResidency transitions residency from -> to atomically.
func (b *Block) CASResidency(from, to Residency) bool {
	return b.residency.CompareAndSwap(uint32(from), uint32(to))
}

// SetResidency forcibly stores the residency state (evictor and rethaw
// critical sections only).
func (b *Block) SetResidency(r Residency) { b.residency.Store(uint32(r)) }

// SetColdRef records the object holding the block's evicted content.
func (b *Block) SetColdRef(ref *ColdRef) { b.coldRef.Store(ref) }

// ColdKey returns the block's cold-object reference, or nil if it was
// never evicted.
func (b *Block) ColdKey() *ColdRef { return b.coldRef.Load() }

// InPlaceReaders reports the current in-place reader count (evictor
// drain loop and tests).
func (b *Block) InPlaceReaders() int { return int(b.readers.Load()) }

// SweepAge returns how many tier sweeps the block has stayed
// Frozen+Resident through.
func (b *Block) SweepAge() uint32 { return b.sweepAge.Load() }

// BumpSweepAge increments the sweep-age counter and returns the new age.
func (b *Block) BumpSweepAge() uint32 { return b.sweepAge.Add(1) }

// DropColdBuffers releases the block's in-RAM data buffers after its
// content is safely in the object store: the 1 MB backing buffer and the
// gathered varlen/dict buffers. Everything reads and writes need to
// *decide* — zone map, allocation and validity bitmaps, null counts,
// frozenRows, version-chain slots, insertHead — stays. The caller must
// hold the eviction critical section and defer this call through the
// GC's action epoch so straggler hot-path readers finish first. The
// buffer is surrendered to the Go GC, never back to the registry pool: a
// pooled buffer could be handed to a new block while a straggler still
// reads it.
func (b *Block) DropColdBuffers() {
	b.buf = nil
	for i := range b.frozenVar {
		b.frozenVar[i] = nil
	}
	for i := range b.frozenDict {
		b.frozenDict[i] = nil
	}
}

// HasBuffer reports whether the block currently holds a backing buffer
// (tests and eviction accounting).
func (b *Block) HasBuffer() bool { return b.buf != nil }

// AttachBuffer installs a fresh backing buffer during re-thaw. The
// caller must hold the Rethawing residency state. len(buf) must be
// BlockSize.
func (b *Block) AttachBuffer(buf []byte) { b.buf = buf }

// RestoreFixedData copies a cold column's fixed-width data (covering the
// first FrozenRows tuples) back into the block's data region. Rethaw
// critical section only.
func (b *Block) RestoreFixedData(col ColumnID, data []byte) {
	copy(b.fixedRegion(col), data)
}

// MarkHotResident is MarkHot for tier-aware writers: identical, except
// that a Frozen block whose buffers are evicted is NOT thawed — the
// method returns false and the caller must re-thaw (fetch + reinstall
// buffers) and retry. Race soundness: the evictor holds state Freezing
// for its whole critical section, so a stale Resident()==true read here
// is always invalidated by the Frozen->Thawing CAS failing, and the loop
// re-observes. Returns true once the block is Hot.
func (b *Block) MarkHotResident() bool {
	for {
		switch b.State() {
		case StateHot:
			return true
		case StateCooling:
			if b.CASState(StateCooling, StateHot) {
				return true
			}
		case StateFrozen:
			if !b.Resident() {
				return false
			}
			if b.CASState(StateFrozen, StateThawing) {
				b.zoneMap.Store(nil)
				b.sweepAge.Store(0)
				for b.readers.Load() > 0 {
					runtime.Gosched()
				}
				b.SetState(StateHot)
				return true
			}
		case StateFreezing, StateThawing:
			runtime.Gosched()
		}
	}
}
