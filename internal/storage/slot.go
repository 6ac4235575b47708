// Package storage implements the paper's block-oriented storage layer
// (§3.2, §4.1): 1 MB PAX-style blocks described by a per-table layout,
// physiological TupleSlot identifiers, the relaxed-Arrow VarlenEntry
// representation for variable-length values, projected rows for partial
// tuple access, and the undo-record structure whose chains provide
// multi-versioning.
//
// The paper packs a block's 1 MB-aligned physical address and a slot offset
// into one 64-bit word via C++ alignas. Go cannot control heap alignment, so
// blocks receive a 44-bit ID from a Registry and TupleSlot packs
// (blockID << 20) | offset; resolving a slot is one bounds-checked array
// index instead of a pointer mask — still constant time, no hashing
// (DESIGN.md "Substitutions").
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Geometry of the physiological addressing scheme (paper Figure 5).
const (
	// BlockSize is the storage block size in bytes (1 MB).
	BlockSize = 1 << 20
	// OffsetBits is the width of the slot-offset field: 20 bits, enough
	// because a block can never hold more tuples than it has bytes.
	OffsetBits = 20
	// BlockIDBits is the width of the block-identifier field.
	BlockIDBits = 44
	// MaxSlotsPerBlock bounds the per-block slot count.
	MaxSlotsPerBlock = 1 << OffsetBits
	offsetMask       = MaxSlotsPerBlock - 1
)

// TupleSlot identifies a tuple: 44 bits of block ID, 20 bits of offset
// within the block. The zero TupleSlot (block 0, offset 0) is never handed
// out — Registry starts IDs at 1 — so it doubles as an invalid sentinel.
type TupleSlot uint64

// NewTupleSlot packs a block ID and an in-block offset.
func NewTupleSlot(blockID uint64, offset uint32) TupleSlot {
	return TupleSlot(blockID<<OffsetBits | uint64(offset)&offsetMask)
}

// BlockID extracts the block identifier.
func (s TupleSlot) BlockID() uint64 { return uint64(s) >> OffsetBits }

// Offset extracts the in-block slot offset.
func (s TupleSlot) Offset() uint32 { return uint32(uint64(s) & offsetMask) }

// Valid reports whether the slot refers to a real block.
func (s TupleSlot) Valid() bool { return s.BlockID() != 0 }

// String renders the slot for diagnostics.
func (s TupleSlot) String() string {
	return fmt.Sprintf("slot(%d:%d)", s.BlockID(), s.Offset())
}

// Registry issues block IDs and resolves them back to blocks in constant
// time. Lookup is lock-free: the directory is an append-only set of
// fixed-size chunks reached through an atomic chunk table, so readers never
// take the lock that writers (block allocation, rare) take.
type Registry struct {
	mu     sync.Mutex
	nextID uint64
	chunks atomic.Pointer[[]*registryChunk]
	pool   *blockBufPool

	// arenaHeld and arenaReleased total the hot-arena bytes of every
	// block (see ArenaBytes).
	arenaHeld     atomic.Int64
	arenaReleased atomic.Int64
}

// ArenaBytes reports the bytes hot-arena slab tables hold across all
// blocks, and the bytes released from them since the registry was made.
func (r *Registry) ArenaBytes() (held, released int64) {
	return r.arenaHeld.Load(), r.arenaReleased.Load()
}

const registryChunkSize = 1 << 12 // 4096 blocks per chunk

type registryChunk struct {
	blocks [registryChunkSize]atomic.Pointer[Block]
}

// NewRegistry creates an empty block registry.
func NewRegistry() *Registry {
	r := &Registry{nextID: 1, pool: newBlockBufPool()}
	empty := make([]*registryChunk, 0)
	r.chunks.Store(&empty)
	return r
}

// Register assigns the next block ID to b, stores it in the directory, and
// returns the ID.
func (r *Registry) Register(b *Block) uint64 {
	r.mu.Lock()
	id := r.nextID
	r.nextID++
	chunkIdx := int(id / registryChunkSize)
	cur := *r.chunks.Load()
	if chunkIdx >= len(cur) {
		grown := make([]*registryChunk, chunkIdx+1)
		copy(grown, cur)
		for i := len(cur); i <= chunkIdx; i++ {
			grown[i] = &registryChunk{}
		}
		r.chunks.Store(&grown)
		cur = grown
	}
	cur[chunkIdx].blocks[id%registryChunkSize].Store(b)
	r.mu.Unlock()
	return id
}

// Lookup resolves a block ID; nil if the ID was never issued or the block
// has been retired.
func (r *Registry) Lookup(id uint64) *Block {
	chunks := *r.chunks.Load()
	chunkIdx := int(id / registryChunkSize)
	if chunkIdx >= len(chunks) {
		return nil
	}
	return chunks[chunkIdx].blocks[id%registryChunkSize].Load()
}

// BlockFor resolves the block containing slot.
func (r *Registry) BlockFor(slot TupleSlot) *Block {
	return r.Lookup(slot.BlockID())
}

// Retire removes a block from the directory (after compaction empties it)
// and recycles its buffer. Slots pointing into a retired block resolve to
// nil; the engine guarantees no live version can still reference them.
func (r *Registry) Retire(b *Block) {
	chunks := *r.chunks.Load()
	chunkIdx := int(b.ID / registryChunkSize)
	if chunkIdx < len(chunks) {
		chunks[chunkIdx].blocks[b.ID%registryChunkSize].Store(nil)
	}
	b.dropArena()
	r.pool.put(b.buf)
}

// blockBufPool recycles 1 MB block buffers.
type blockBufPool struct {
	mu   sync.Mutex
	free [][]byte
}

func newBlockBufPool() *blockBufPool { return &blockBufPool{} }

func (p *blockBufPool) get() []byte {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		for i := range b {
			b[i] = 0
		}
		return b
	}
	p.mu.Unlock()
	return make([]byte, BlockSize)
}

func (p *blockBufPool) put(b []byte) {
	if len(b) != BlockSize {
		return
	}
	p.mu.Lock()
	if len(p.free) < 256 {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}
