package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mainline/internal/util"
)

// ErrDuplicateColumn is returned by NewProjection when the same column is
// named twice. Projections back rows, batches, and scans whose per-column
// storage is positional — a duplicated column would silently alias one
// value slot under two positions, so it is rejected with a typed error the
// public API surfaces as mainline.ErrDuplicateColumn.
var ErrDuplicateColumn = errors.New("storage: projection names a column twice")

// Projection describes a subset of a layout's columns laid out as a compact
// row: fixed-width attributes packed into one byte buffer, variable-length
// attributes carried as byte-slice references. It is the shape of delta
// records (before-images), written after-images (which the redo buffer
// encodes at write time), and materialized tuples handed to transactions
// — the paper's ProjectedRow concept.
//
// A Projection is computed once and shared; ProjectedRows instantiated from
// it are cheap (one buffer allocation) and reusable.
type Projection struct {
	Layout *BlockLayout
	Cols   []ColumnID

	fixedOff  []int // per projected column: offset into the fixed buffer, -1 if varlen
	varIdx    []int // per projected column: index into vars, -1 if fixed
	fixedSize int
	numVarlen int
	mask      uint64
}

// AllColumnsMask is the column mask of every column.
const AllColumnsMask = ^uint64(0)

// NewProjection builds a projection of cols over layout. Column IDs must be
// valid and unique.
func NewProjection(layout *BlockLayout, cols []ColumnID) (*Projection, error) {
	p := &Projection{
		Layout:   layout,
		Cols:     append([]ColumnID(nil), cols...),
		fixedOff: make([]int, len(cols)),
		varIdx:   make([]int, len(cols)),
	}
	seen := make(map[ColumnID]bool, len(cols))
	for i, c := range cols {
		if int(c) >= layout.NumColumns() {
			return nil, fmt.Errorf("storage: projection column %d out of range", c)
		}
		if seen[c] {
			return nil, fmt.Errorf("storage: projection column %d duplicated: %w", c, ErrDuplicateColumn)
		}
		seen[c] = true
		p.mask |= 1 << min(uint64(c), 63)
		if layout.IsVarlen(c) {
			p.fixedOff[i] = -1
			p.varIdx[i] = p.numVarlen
			p.numVarlen++
		} else {
			p.fixedOff[i] = p.fixedSize
			p.varIdx[i] = -1
			p.fixedSize += layout.AttrSize(c)
		}
	}
	return p, nil
}

// MustProjection is NewProjection that panics on error; for statically
// correct call sites (tests, generated plans).
func MustProjection(layout *BlockLayout, cols []ColumnID) *Projection {
	p, err := NewProjection(layout, cols)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the column mask of the projected columns: bit c for column
// c, with bit 63 standing for every column >= 63, so a mask of a wide
// table over-approximates and never under-approximates.
func (p *Projection) Mask() uint64 { return p.mask }

// NumCols returns the number of projected columns.
func (p *Projection) NumCols() int { return len(p.Cols) }

// IsVarlenAt reports whether projected column i is variable-length.
func (p *Projection) IsVarlenAt(i int) bool { return p.varIdx[i] >= 0 }

// IndexOf returns the projection-local index of column c, or -1.
func (p *Projection) IndexOf(c ColumnID) int {
	for i, col := range p.Cols {
		if col == c {
			return i
		}
	}
	return -1
}

// NewRow allocates a ProjectedRow for this projection.
func (p *Projection) NewRow() *ProjectedRow {
	nb := util.BitmapBytes(len(p.Cols))
	buf := make([]byte, nb+p.fixedSize+p.numVarlen*VarlenInlineLimit)
	r := &ProjectedRow{
		P:     p,
		Nulls: util.Bitmap(buf[:nb:nb]),
		fixed: buf[nb : nb+p.fixedSize : nb+p.fixedSize],
		inl:   buf[nb+p.fixedSize:],
	}
	if p.numVarlen > 0 {
		r.vars = make([][]byte, p.numVarlen)
	}
	return r
}

// ProjectedRow is a materialized partial tuple: values for each projected
// column plus a null bitmap. The zero value is not usable; obtain rows from
// Projection.NewRow.
//
// A varlen value held by the row may alias memory the row does not own:
// the caller's buffer for SetVarlen, engine storage for rows filled by a
// read. Such a value must not be written, and it is valid until the row's
// next use.
type ProjectedRow struct {
	P     *Projection
	Nulls util.Bitmap
	fixed []byte
	vars  [][]byte
	// inl holds VarlenInlineLimit bytes per varlen column: the row's own
	// copies of values short enough to sit inline in a block entry (see
	// SetVarlenFromBlock).
	inl []byte
}

// Reset clears all values and nulls for reuse.
func (r *ProjectedRow) Reset() {
	r.Nulls.ZeroAll()
	for i := range r.fixed {
		r.fixed[i] = 0
	}
	for i := range r.vars {
		r.vars[i] = nil
	}
}

// IsNull reports whether projected column i is null.
func (r *ProjectedRow) IsNull(i int) bool { return r.Nulls.Test(i) }

// SetNull marks projected column i null (and zeroes fixed storage so
// downstream Arrow buffers stay deterministic).
func (r *ProjectedRow) SetNull(i int) {
	r.Nulls.Set(i)
	if off := r.P.fixedOff[i]; off >= 0 {
		size := r.P.Layout.AttrSize(r.P.Cols[i])
		for j := 0; j < size; j++ {
			r.fixed[off+j] = 0
		}
	} else {
		r.vars[r.P.varIdx[i]] = nil
	}
}

// setValid clears the null bit.
func (r *ProjectedRow) setValid(i int) { r.Nulls.Clear(i) }

// FixedBytes returns the raw storage for fixed-width projected column i.
func (r *ProjectedRow) FixedBytes(i int) []byte {
	off := r.P.fixedOff[i]
	size := r.P.Layout.AttrSize(r.P.Cols[i])
	return r.fixed[off : off+size]
}

// SetInt64 stores v into projected column i (must be an 8-byte column).
func (r *ProjectedRow) SetInt64(i int, v int64) {
	binary.LittleEndian.PutUint64(r.FixedBytes(i), uint64(v))
	r.setValid(i)
}

// Int64 loads projected column i as int64.
func (r *ProjectedRow) Int64(i int) int64 {
	return int64(binary.LittleEndian.Uint64(r.FixedBytes(i)))
}

// SetInt32 stores v into projected column i (must be a 4-byte column).
func (r *ProjectedRow) SetInt32(i int, v int32) {
	binary.LittleEndian.PutUint32(r.FixedBytes(i), uint32(v))
	r.setValid(i)
}

// Int32 loads projected column i as int32.
func (r *ProjectedRow) Int32(i int) int32 {
	return int32(binary.LittleEndian.Uint32(r.FixedBytes(i)))
}

// SetInt16 stores v into projected column i (must be a 2-byte column).
func (r *ProjectedRow) SetInt16(i int, v int16) {
	binary.LittleEndian.PutUint16(r.FixedBytes(i), uint16(v))
	r.setValid(i)
}

// Int16 loads projected column i as int16.
func (r *ProjectedRow) Int16(i int) int16 {
	return int16(binary.LittleEndian.Uint16(r.FixedBytes(i)))
}

// SetInt8 stores v into projected column i (must be a 1-byte column).
func (r *ProjectedRow) SetInt8(i int, v int8) {
	r.FixedBytes(i)[0] = byte(v)
	r.setValid(i)
}

// Int8 loads projected column i as int8.
func (r *ProjectedRow) Int8(i int) int8 { return int8(r.FixedBytes(i)[0]) }

// SetFloat64 stores v into projected column i (must be an 8-byte column).
func (r *ProjectedRow) SetFloat64(i int, v float64) {
	binary.LittleEndian.PutUint64(r.FixedBytes(i), math.Float64bits(v))
	r.setValid(i)
}

// Float64 loads projected column i as float64.
func (r *ProjectedRow) Float64(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.FixedBytes(i)))
}

// SetVarlen stores a variable-length value into projected column i. The row
// references val without copying: val may alias the caller's buffer or
// engine storage, so callers that reuse val must copy first, and readers
// of the row must not write into the value.
func (r *ProjectedRow) SetVarlen(i int, val []byte) {
	r.vars[r.P.varIdx[i]] = val
	r.setValid(i)
}

// SetVarlenFromBlock stores a value read by Block.ReadVarlen into
// projected column i under ReadVarlen's rule: a value of at most
// VarlenInlineLimit bytes may sit inline in the block's mutable, pooled
// entry, so it is copied into the row's own storage; a longer one lives in
// immutable backing (a hot-arena slab or a frozen buffer) and is kept by
// reference.
func (r *ProjectedRow) SetVarlenFromBlock(i int, val []byte) {
	vi := r.P.varIdx[i]
	if n := len(val); n <= VarlenInlineLimit {
		off := vi * VarlenInlineLimit
		own := r.inl[off : off+n : off+n]
		copy(own, val)
		val = own
	}
	r.vars[vi] = val
	r.setValid(i)
}

// Varlen returns the variable-length value of projected column i.
func (r *ProjectedRow) Varlen(i int) []byte {
	return r.vars[r.P.varIdx[i]]
}

// CopyFrom copies all values from src, which must share the projection.
// Values src holds in its own storage are copied into r's; the rest are
// shared by reference.
func (r *ProjectedRow) CopyFrom(src *ProjectedRow) {
	copy(r.fixed, src.fixed)
	copy(r.Nulls, src.Nulls)
	copy(r.inl, src.inl)
	for vi, v := range src.vars {
		if off := vi * VarlenInlineLimit; len(v) > 0 && &v[0] == &src.inl[off] {
			v = r.inl[off : off+len(v) : off+len(v)]
		}
		r.vars[vi] = v
	}
}

// Clone returns a copy of the row under CopyFrom's rule.
func (r *ProjectedRow) Clone() *ProjectedRow {
	c := r.P.NewRow()
	c.CopyFrom(r)
	return c
}

// SizeBytes estimates the row's memory footprint (for write-set accounting
// in the compaction-group experiments).
func (r *ProjectedRow) SizeBytes() int {
	n := len(r.fixed) + len(r.Nulls)
	for _, v := range r.vars {
		n += len(v)
	}
	return n
}
