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
