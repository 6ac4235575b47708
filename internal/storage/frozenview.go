package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"

	"mainline/internal/util"
)

// Zero-copy column accessor views over frozen blocks. A view wraps the
// block's Arrow buffers directly — the fixed-width data region, the
// gathered varlen offsets+values pair, or the dictionary codes — so batch
// scans read column values with no materialization and no allocation.
// Views are only meaningful while the caller holds the block's in-place
// reader registration (BeginInPlaceRead); a writer flipping the block hot
// waits for readers to drain before mutating.

// FixedColView is a typed view over a frozen fixed-width column: the
// column's contiguous value buffer plus its serialized validity bitmap.
type FixedColView struct {
	Data  []byte
	Width int
	// Valid is nil when the column has no nulls (skip the bitmap test).
	Valid util.Bitmap
}

// FrozenFixedView builds the zero-copy view of fixed-width column col.
func (b *Block) FrozenFixedView(col ColumnID) FixedColView {
	v := FixedColView{Data: b.FrozenFixedData(col), Width: b.Layout.AttrSize(col)}
	if b.nullCounts[col] > 0 {
		v.Valid = b.FrozenValidity(col)
	}
	return v
}

// IsNull reports whether row i is null.
func (v *FixedColView) IsNull(i int) bool { return v.Valid != nil && !v.Valid.Test(i) }

// Int64At loads row i of an 8-byte column.
func (v *FixedColView) Int64At(i int) int64 {
	return int64(binary.LittleEndian.Uint64(v.Data[i*8:]))
}

// Int32At loads row i of a 4-byte column.
func (v *FixedColView) Int32At(i int) int32 {
	return int32(binary.LittleEndian.Uint32(v.Data[i*4:]))
}

// Int16At loads row i of a 2-byte column.
func (v *FixedColView) Int16At(i int) int16 {
	return int16(binary.LittleEndian.Uint16(v.Data[i*2:]))
}

// Int8At loads row i of a 1-byte column.
func (v *FixedColView) Int8At(i int) int8 { return int8(v.Data[i]) }

// Float64At loads row i of an 8-byte column as float64.
func (v *FixedColView) Float64At(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.Data[i*8:]))
}

// IntAt widens row i to int64 by the column's width.
func (v *FixedColView) IntAt(i int) int64 {
	switch v.Width {
	case 8:
		return v.Int64At(i)
	case 4:
		return int64(v.Int32At(i))
	case 2:
		return int64(v.Int16At(i))
	default:
		return int64(v.Int8At(i))
	}
}

// VarlenColView is a zero-copy view over a frozen variable-length column.
// Plain-gathered columns resolve through the offsets+values pair;
// dictionary-compressed columns resolve lazily through the code array —
// the dictionary is only consulted for rows actually read. The view holds
// the dictionary's buffers by value, so building one allocates nothing.
type VarlenColView struct {
	offsets, values []byte // the plain-gathered buffers
	dict            FrozenDict
	hasDict         bool
	Valid           util.Bitmap // nil when the column has no nulls
}

// NewVarlenColView assembles a view from explicit buffers — the cold
// path builds views from an evicted block's record batch rather than
// block memory. dict, when non-nil, takes precedence over the plain
// offsets+values pair; its buffers are copied into the view, not dict.
func NewVarlenColView(offsets, values []byte, dict *FrozenDict, valid util.Bitmap) VarlenColView {
	v := VarlenColView{offsets: offsets, values: values, Valid: valid}
	if dict != nil {
		v.dict, v.hasDict = *dict, true
	}
	return v
}

// FrozenVarlenView builds the zero-copy view of varlen column col.
func (b *Block) FrozenVarlenView(col ColumnID) VarlenColView {
	var v VarlenColView
	if d := b.frozenDict[col]; d != nil {
		v.dict, v.hasDict = *d, true
	}
	if fv := b.frozenVar[col]; fv != nil {
		v.offsets, v.values = fv.Offsets, fv.Values
	}
	if b.nullCounts[col] > 0 {
		v.Valid = b.FrozenValidity(col)
	}
	return v
}

// IsNull reports whether row i is null.
func (v *VarlenColView) IsNull(i int) bool { return v.Valid != nil && !v.Valid.Test(i) }

// Dict returns the column's dictionary, or nil for plain-gathered columns.
// It points into the view and is valid as long as the view is.
func (v *VarlenColView) Dict() *FrozenDict {
	if !v.hasDict {
		return nil
	}
	return &v.dict
}

// BytesAt returns row i's value, aliasing the frozen buffer (nil for
// nulls). Valid while the caller's in-place read registration is held.
func (v *VarlenColView) BytesAt(i int) []byte {
	if v.IsNull(i) {
		return nil
	}
	if v.hasDict {
		return v.dict.Value(int(v.dict.CodeAt(i)))
	}
	off := binary.LittleEndian.Uint32(v.offsets[i*4:])
	end := binary.LittleEndian.Uint32(v.offsets[(i+1)*4:])
	return v.values[off:end:end]
}

// --- FrozenDict accessors ----------------------------------------------------

// CodeAt returns row i's dictionary code.
func (d *FrozenDict) CodeAt(i int) int32 {
	return int32(binary.LittleEndian.Uint32(d.Codes[i*4:]))
}

// Value returns the dictionary entry for code, aliasing dictionary memory.
func (d *FrozenDict) Value(code int) []byte {
	off := binary.LittleEndian.Uint32(d.DictOffsets[code*4:])
	end := binary.LittleEndian.Uint32(d.DictOffsets[(code+1)*4:])
	return d.DictValues[off:end:end]
}

// CodeRange translates a byte range [lo, hi] into the half-open code range
// [loCode, hiCode) of dictionary entries inside it — the dictionary is
// sorted, so a value predicate becomes an int32 code-range predicate and
// the column's values are never touched. A nil bound means unbounded;
// strict flags exclude the bound itself.
func (d *FrozenDict) CodeRange(lo, hi []byte, loStrict, hiStrict bool) (loCode, hiCode int32) {
	loCode, hiCode = 0, int32(d.NumEntries)
	if lo != nil {
		loCode = int32(sort.Search(d.NumEntries, func(i int) bool {
			c := bytes.Compare(d.Value(i), lo)
			if loStrict {
				return c > 0
			}
			return c >= 0
		}))
	}
	if hi != nil {
		hiCode = int32(sort.Search(d.NumEntries, func(i int) bool {
			c := bytes.Compare(d.Value(i), hi)
			if hiStrict {
				return c >= 0
			}
			return c > 0
		}))
	}
	return loCode, hiCode
}
