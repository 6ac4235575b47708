package storage

import "encoding/binary"

// VarlenEntry codec (paper Figure 6). Every variable-length value occupies a
// 16-byte entry inside the block:
//
//	bytes [0:4)   uint32 length of the value
//	bytes [4:8)   prefix: first min(4, len) bytes, for fast filtering
//	bytes [8:16)  if len <= 12: value bytes 4..len stored inline
//	              else: a 64-bit handle locating the spilled value
//
// The paper's handle is a raw heap pointer. Go's garbage collector cannot
// trace pointers hidden in byte buffers, so the handle instead encodes where
// the value lives:
//
//	bit 63 = 0: a place in the block's hot arena of append-only byte
//	            slabs: bits [32, 63) index the slab, bits [0, 32) are the
//	            value's byte offset in it
//	bit 63 = 1: byte offset into the block's frozen contiguous values buffer
//	            (built by the gather phase; doubles as the Arrow offset)
//
// Updating a varlen attribute therefore appends a fresh arena value and
// overwrites 16 in-block bytes — a constant-time, fixed-length update, which
// is the whole point of the relaxed format (§4.1).

// VarlenInlineLimit is the largest value stored entirely within the entry.
const VarlenInlineLimit = 12

const frozenHandleFlag = uint64(1) << 63

// varlenEntryPutInline encodes a value of length <= VarlenInlineLimit.
func varlenEntryPutInline(dst []byte, val []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], uint32(len(val)))
	var tail [12]byte
	copy(tail[:], val)
	copy(dst[4:16], tail[:])
}

// varlenEntryPutSpilled encodes a spilled value: size, 4-byte prefix, handle.
func varlenEntryPutSpilled(dst []byte, size uint32, prefix []byte, handle uint64) {
	binary.LittleEndian.PutUint32(dst[0:4], size)
	var p [4]byte
	copy(p[:], prefix)
	copy(dst[4:8], p[:])
	binary.LittleEndian.PutUint64(dst[8:16], handle)
}

// varlenEntrySize reads the value length.
func varlenEntrySize(src []byte) uint32 {
	return binary.LittleEndian.Uint32(src[0:4])
}

// varlenEntryIsInline reports whether the value is stored inline.
func varlenEntryIsInline(src []byte) bool {
	return varlenEntrySize(src) <= VarlenInlineLimit
}

// varlenEntryInline returns the inline value bytes (valid only if inline).
// The returned slice aliases the entry; callers copy before the entry can
// be rewritten.
func varlenEntryInline(src []byte) []byte {
	n := varlenEntrySize(src)
	return src[4 : 4+n]
}

// varlenEntryHandle returns the raw 64-bit handle (valid only if spilled).
func varlenEntryHandle(src []byte) uint64 {
	return binary.LittleEndian.Uint64(src[8:16])
}

// varlenEntryPrefix returns the stored prefix bytes.
func varlenEntryPrefix(src []byte) []byte {
	n := varlenEntrySize(src)
	if n > 4 {
		n = 4
	}
	return src[4 : 4+n]
}

// makeArenaHandle encodes a hot arena (slab, offset) pair.
func makeArenaHandle(slab, off int) uint64 { return uint64(slab)<<32 | uint64(off) }

// arenaHandleSlab and arenaHandleOffset decode a hot arena handle.
func arenaHandleSlab(h uint64) uint64   { return h >> 32 }
func arenaHandleOffset(h uint64) uint64 { return h & (1<<32 - 1) }

// makeFrozenHandle encodes an offset into the frozen values buffer.
func makeFrozenHandle(off int) uint64 { return uint64(off) | frozenHandleFlag }

// handleIsFrozen reports whether the handle points into the frozen buffer.
func handleIsFrozen(h uint64) bool { return h&frozenHandleFlag != 0 }

// handleValue strips the location flag.
func handleValue(h uint64) uint64 { return h &^ frozenHandleFlag }
