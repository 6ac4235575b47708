package storage

import "sync"

// SelectionVector is the batch-scan engine's late-materialization currency:
// an ordered list of row positions that survived a predicate. Kernels append
// matching positions; downstream consumers touch only the selected rows.
// Vectors are reusable and pooled — a scan borrows one per block batch and
// returns it when the batch callback completes.
type SelectionVector struct {
	idx []uint32
}

// Reset empties the vector, keeping capacity.
func (sv *SelectionVector) Reset() { sv.idx = sv.idx[:0] }

// Len returns the number of selected positions.
func (sv *SelectionVector) Len() int { return len(sv.idx) }

// Append adds a position (positions must be appended in ascending order).
func (sv *SelectionVector) Append(pos uint32) { sv.idx = append(sv.idx, pos) }

// Indices exposes the selected positions; valid until the next Reset.
func (sv *SelectionVector) Indices() []uint32 { return sv.idx }

// SetIndices replaces the vector's contents with the kernel-filled slice,
// which must share sv's backing array (kernels take sv.Indices()[:0] and
// return the appended result).
func (sv *SelectionVector) SetIndices(idx []uint32) { sv.idx = idx }

var selVecPool = sync.Pool{New: func() any { return new(SelectionVector) }}

// GetSelectionVector borrows a pooled selection vector with capacity for at
// least capHint positions.
func GetSelectionVector(capHint int) *SelectionVector {
	sv := selVecPool.Get().(*SelectionVector)
	if cap(sv.idx) < capHint {
		sv.idx = make([]uint32, 0, capHint)
	}
	sv.Reset()
	return sv
}

// PutSelectionVector returns a vector to the pool.
func PutSelectionVector(sv *SelectionVector) {
	if sv != nil {
		selVecPool.Put(sv)
	}
}

// ValueArena is a bump allocator for variable-length values materialized
// during a scan: instead of one heap allocation per value per row, values
// are copied into reused chunks. Reset reclaims everything at once, so a
// hot-block batch scan resets per staged chunk and the whole traversal
// costs a handful of chunk allocations total. Values returned by Copy are
// valid only until the next Reset.
type ValueArena struct {
	chunk []byte
	off   int
}

const arenaChunkSize = 16 << 10

// Copy stores v in the arena and returns the arena-owned copy.
func (a *ValueArena) Copy(v []byte) []byte {
	n := len(v)
	if n == 0 {
		return v[:0:0]
	}
	if n > arenaChunkSize {
		// Oversized value: dedicated allocation (rare; not reused).
		return append([]byte(nil), v...)
	}
	if a.off+n > len(a.chunk) {
		a.chunk = make([]byte, arenaChunkSize)
		a.off = 0
	}
	dst := a.chunk[a.off : a.off+n : a.off+n]
	copy(dst, v)
	a.off += n
	return dst
}

// Reset invalidates every value handed out since the last Reset and makes
// the current chunk reusable.
func (a *ValueArena) Reset() { a.off = 0 }
