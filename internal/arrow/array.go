package arrow

import (
	"encoding/binary"
	"fmt"
	"math"

	"mainline/internal/util"
)

// Array is an immutable Arrow column: a validity bitmap plus one or two
// value buffers, depending on the physical type. All buffers are 8-byte
// aligned byte slices so they can be shipped over IPC without re-encoding.
type Array struct {
	Type      TypeID
	Length    int
	NullCount int

	// Validity holds one bit per value; nil means all values valid.
	Validity util.Bitmap

	// Values holds fixed-width data, bit-packed bools, varlen bytes (for
	// STRING/BINARY this is the contiguous values buffer), or int32
	// dictionary codes for DICT32.
	Values []byte

	// Offsets holds length+1 int32 offsets for STRING/BINARY, nil otherwise.
	Offsets []byte

	// Dict is the dictionary for DICT32 columns (itself a STRING array).
	Dict *Array
}

// IsNull reports whether value i is null.
func (a *Array) IsNull(i int) bool {
	return a.Validity != nil && !a.Validity.Test(i)
}

// IsValid reports whether value i is non-null.
func (a *Array) IsValid(i int) bool { return !a.IsNull(i) }

// Int64 returns value i of an INT64 array.
func (a *Array) Int64(i int) int64 {
	return int64(binary.LittleEndian.Uint64(a.Values[i*8:]))
}

// Int32 returns value i of an INT32 (or DICT32 code) array.
func (a *Array) Int32(i int) int32 {
	return int32(binary.LittleEndian.Uint32(a.Values[i*4:]))
}

// Int16 returns value i of an INT16 array.
func (a *Array) Int16(i int) int16 {
	return int16(binary.LittleEndian.Uint16(a.Values[i*2:]))
}

// Int8 returns value i of an INT8 array.
func (a *Array) Int8(i int) int8 { return int8(a.Values[i]) }

// Float64 returns value i of a FLOAT64 array.
func (a *Array) Float64(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(a.Values[i*8:]))
}

// Bool returns value i of a BOOL array.
func (a *Array) Bool(i int) bool {
	return util.Bitmap(a.Values).Test(i)
}

// offset returns the int32 offset at index i.
func (a *Array) offset(i int) int32 {
	return int32(binary.LittleEndian.Uint32(a.Offsets[i*4:]))
}

// Bytes returns value i of a STRING/BINARY array as a zero-copy slice of the
// values buffer, capped at the value's end so an append by the caller
// cannot write into the next value. For DICT32 arrays it resolves the code
// through the dictionary.
func (a *Array) Bytes(i int) []byte {
	if a.Type == DICT32 {
		return a.Dict.Bytes(int(a.Int32(i)))
	}
	start, end := a.offset(i), a.offset(i+1)
	return a.Values[start:end:end]
}

// String returns value i of a STRING or DICT32 array.
func (a *Array) Str(i int) string { return string(a.Bytes(i)) }

// ValueLen returns the byte length of varlen value i.
func (a *Array) ValueLen(i int) int {
	if a.Type == DICT32 {
		return a.Dict.ValueLen(int(a.Int32(i)))
	}
	return int(a.offset(i+1) - a.offset(i))
}

// validate performs structural sanity checks; used by tests and IPC read.
func (a *Array) validate() error {
	switch {
	case a.Type.FixedWidth():
		if len(a.Values) < a.Length*a.Type.ByteWidth() {
			return fmt.Errorf("arrow: %s array of length %d has %d value bytes", a.Type, a.Length, len(a.Values))
		}
	case a.Type == BOOL:
		if len(a.Values) < (a.Length+7)/8 {
			return fmt.Errorf("arrow: bool array of length %d has %d value bytes", a.Length, len(a.Values))
		}
	case a.Type.VarLen():
		if len(a.Offsets) < (a.Length+1)*4 {
			return fmt.Errorf("arrow: varlen array of length %d has %d offset bytes", a.Length, len(a.Offsets))
		}
		if a.Length > 0 {
			last := a.offset(a.Length)
			if int(last) > len(a.Values) {
				return fmt.Errorf("arrow: varlen final offset %d exceeds values buffer %d", last, len(a.Values))
			}
		}
	case a.Type == DICT32:
		if len(a.Values) < a.Length*4 {
			return fmt.Errorf("arrow: dict array of length %d has %d code bytes", a.Length, len(a.Values))
		}
		if a.Dict == nil {
			return fmt.Errorf("arrow: dict array missing dictionary")
		}
		return a.Dict.validate()
	}
	return nil
}

// --- Builders -------------------------------------------------------------

// Builder accumulates values for one column and produces an immutable Array.
// Builders are append-only and not safe for concurrent use.
type Builder struct {
	typ      TypeID
	length   int
	nulls    int
	validity util.Bitmap
	values   []byte
	offsets  []byte
	dict     map[string]int32
	dictVals *Builder
}

// NewBuilder creates a builder for the given type.
func NewBuilder(t TypeID) *Builder {
	b := &Builder{typ: t}
	if t.VarLen() {
		b.offsets = binary.LittleEndian.AppendUint32(b.offsets, 0)
	}
	if t == DICT32 {
		b.dict = make(map[string]int32)
		b.dictVals = NewBuilder(STRING)
	}
	return b
}

// Len returns the number of values appended so far.
func (b *Builder) Len() int { return b.length }

func (b *Builder) appendValid() {
	if b.validity != nil {
		b.growValidity()
		b.validity.Set(b.length)
	}
	b.length++
}

func (b *Builder) growValidity() {
	need := util.BitmapBytes(b.length + 1)
	for len(b.validity) < need {
		b.validity = append(b.validity, 0)
	}
}

// AppendNull appends a null value.
func (b *Builder) AppendNull() {
	if b.validity == nil {
		// Materialize a validity bitmap with all prior values valid.
		b.validity = util.NewBitmap(b.length + 64)
		b.validity.SetAll(b.length)
	}
	b.growValidity()
	b.validity.Clear(b.length)
	b.nulls++
	// Null still occupies a slot in fixed buffers / offsets.
	switch {
	case b.typ.FixedWidth():
		b.values = append(b.values, make([]byte, b.typ.ByteWidth())...)
	case b.typ == BOOL:
		b.ensureBoolByte()
	case b.typ.VarLen():
		b.offsets = binary.LittleEndian.AppendUint32(b.offsets, uint32(len(b.values)))
	case b.typ == DICT32:
		b.values = append(b.values, 0, 0, 0, 0)
	}
	b.length++
}

func (b *Builder) ensureBoolByte() {
	need := (b.length + 8) / 8
	for len(b.values) < need {
		b.values = append(b.values, 0)
	}
}

// AppendInt64 appends v to an INT64 builder.
func (b *Builder) AppendInt64(v int64) {
	b.values = binary.LittleEndian.AppendUint64(b.values, uint64(v))
	b.appendValid()
}

// AppendInt32 appends v to an INT32 builder.
func (b *Builder) AppendInt32(v int32) {
	b.values = binary.LittleEndian.AppendUint32(b.values, uint32(v))
	b.appendValid()
}

// AppendInt16 appends v to an INT16 builder.
func (b *Builder) AppendInt16(v int16) {
	b.values = binary.LittleEndian.AppendUint16(b.values, uint16(v))
	b.appendValid()
}

// AppendInt8 appends v to an INT8 builder.
func (b *Builder) AppendInt8(v int8) {
	b.values = append(b.values, byte(v))
	b.appendValid()
}

// AppendFloat64 appends v to a FLOAT64 builder.
func (b *Builder) AppendFloat64(v float64) {
	b.values = binary.LittleEndian.AppendUint64(b.values, math.Float64bits(v))
	b.appendValid()
}

// AppendFixed appends len(raw)/width non-null values to a fixed-width
// builder from their packed little-endian bytes — the bulk form of
// AppendInt64 and friends, producing identical buffers.
func (b *Builder) AppendFixed(raw []byte) {
	b.values = append(b.values, raw...)
	for n := len(raw) / b.typ.ByteWidth(); n > 0; n-- {
		b.appendValid()
	}
}

// AppendBool appends v to a BOOL builder.
func (b *Builder) AppendBool(v bool) {
	b.ensureBoolByte()
	if v {
		util.Bitmap(b.values).Set(b.length)
	}
	b.appendValid()
}

// AppendBytes appends v to a STRING/BINARY/DICT32 builder.
func (b *Builder) AppendBytes(v []byte) {
	switch b.typ {
	case DICT32:
		code, ok := b.dict[string(v)]
		if !ok {
			code = int32(b.dictVals.Len())
			b.dict[string(v)] = code
			b.dictVals.AppendBytes(v)
		}
		b.values = binary.LittleEndian.AppendUint32(b.values, uint32(code))
	default:
		b.values = append(b.values, v...)
		b.offsets = binary.LittleEndian.AppendUint32(b.offsets, uint32(len(b.values)))
	}
	b.appendValid()
}

// AppendString appends s.
func (b *Builder) AppendString(s string) { b.AppendBytes([]byte(s)) }

// Finish freezes the builder into an Array. The builder must not be used
// afterwards. All buffers are padded to 8-byte multiples per the Arrow
// alignment rule.
func (b *Builder) Finish() *Array {
	a := &Array{
		Type:      b.typ,
		Length:    b.length,
		NullCount: b.nulls,
		Validity:  b.validity,
		Values:    pad8(b.values),
		Offsets:   pad8(b.offsets),
	}
	if b.typ == DICT32 {
		a.Dict = b.dictVals.Finish()
	}
	if !b.typ.VarLen() {
		a.Offsets = nil
	}
	return a
}

func pad8(buf []byte) []byte {
	if buf == nil {
		return nil
	}
	for len(buf)%8 != 0 {
		buf = append(buf, 0)
	}
	return buf
}

// --- Direct constructors (zero-copy from storage blocks) -------------------

// NewFixedArray wraps existing fixed-width column memory as an Array without
// copying. The storage engine uses this to expose frozen block columns
// in place (paper §4.1: readers access Arrow directly).
func NewFixedArray(t TypeID, length int, values []byte, validity util.Bitmap, nullCount int) *Array {
	return &Array{Type: t, Length: length, NullCount: nullCount, Values: values, Validity: validity}
}

// NewVarlenArray wraps existing offsets+values buffers as a STRING/BINARY
// array without copying.
func NewVarlenArray(t TypeID, length int, offsets, values []byte, validity util.Bitmap, nullCount int) *Array {
	return &Array{Type: t, Length: length, NullCount: nullCount, Offsets: offsets, Values: values, Validity: validity}
}

// NewDictArray wraps existing code and dictionary buffers as a DICT32 array.
func NewDictArray(length int, codes []byte, dict *Array, validity util.Bitmap, nullCount int) *Array {
	return &Array{Type: DICT32, Length: length, NullCount: nullCount, Values: codes, Dict: dict, Validity: validity}
}
