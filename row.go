package mainline

import (
	"fmt"

	"mainline/internal/arrow"
	"mainline/internal/storage"
)

// Row is a materialized (partial) tuple bound to a table schema. Beside
// the embedded positional setters (SetInt64(0, v), SetVarlen(1, b), ...)
// it offers name-addressed access: row.Set("name", v) and typed getters
// like row.Int64("id"). Obtain rows from Table.NewRow (all columns) or
// Table.NewRowFor (a named subset).
//
// The name-addressed integer getters shadow the positional ones of the
// embedded ProjectedRow; reach those through row.ProjectedRow if needed.
type Row struct {
	*storage.ProjectedRow
	schema *arrow.Schema
}

// col resolves a schema column name to its schema field index and the
// row's projection-local index.
func (r *Row) col(name string) (field, i int, err error) {
	f := r.schema.FieldIndex(name)
	if f < 0 {
		return -1, -1, fmt.Errorf("mainline: no column %q", name)
	}
	i = r.P.IndexOf(storage.ColumnID(f))
	if i < 0 {
		return -1, -1, fmt.Errorf("mainline: column %q not in row's projection", name)
	}
	return f, i, nil
}

// Set stores v into the named column, encoding by the column's SCHEMA
// type: nil sets NULL; string/[]byte go to varlen columns (a []byte value
// is referenced, not copied); float64 (or any signed integer) goes to
// FLOAT64 columns; signed integers go to integer columns, range-checked
// against the column width. Mismatches (float into an integer column,
// string into a fixed column, ...) are errors — never silent bit
// reinterpretation.
func (r *Row) Set(name string, v any) error {
	f, i, err := r.col(name)
	if err != nil {
		return err
	}
	if v == nil {
		r.SetNull(i)
		return nil
	}
	ftype := r.schema.Fields[f].Type
	if r.P.Layout.IsVarlen(storage.ColumnID(f)) {
		switch x := v.(type) {
		case string:
			r.SetVarlen(i, []byte(x))
		case []byte:
			r.SetVarlen(i, x)
		default:
			return fmt.Errorf("mainline: column %q is variable-length, cannot store %T", name, v)
		}
		return nil
	}
	if ftype == arrow.FLOAT64 {
		switch x := v.(type) {
		case float64:
			r.SetFloat64(i, x)
		case int:
			r.SetFloat64(i, float64(x))
		case int64:
			r.SetFloat64(i, float64(x))
		case int32:
			r.SetFloat64(i, float64(x))
		case int16:
			r.SetFloat64(i, float64(x))
		case int8:
			r.SetFloat64(i, float64(x))
		default:
			return fmt.Errorf("mainline: column %q is FLOAT64, cannot store %T", name, v)
		}
		return nil
	}
	var n int64
	switch x := v.(type) {
	case int:
		n = int64(x)
	case int8:
		n = int64(x)
	case int16:
		n = int64(x)
	case int32:
		n = int64(x)
	case int64:
		n = x
	default:
		return fmt.Errorf("mainline: column %q is an integer column, cannot store %T", name, v)
	}
	switch width := r.P.Layout.AttrSize(storage.ColumnID(f)); width {
	case 8:
		r.SetInt64(i, n)
	case 4:
		if n < -1<<31 || n > 1<<31-1 {
			return fmt.Errorf("mainline: value %d overflows 4-byte column %q", n, name)
		}
		r.SetInt32(i, int32(n))
	case 2:
		if n < -1<<15 || n > 1<<15-1 {
			return fmt.Errorf("mainline: value %d overflows 2-byte column %q", n, name)
		}
		r.SetInt16(i, int16(n))
	case 1:
		if n < -1<<7 || n > 1<<7-1 {
			return fmt.Errorf("mainline: value %d overflows 1-byte column %q", n, name)
		}
		r.SetInt8(i, int8(n))
	default:
		return fmt.Errorf("mainline: column %q has unsupported width %d", name, width)
	}
	return nil
}

// intAt widens the fixed-width value at projection index i to int64. A
// FLOAT64 column converts by value, never by bit reinterpretation.
func (r *Row) intAt(i int) int64 {
	col := r.P.Cols[i]
	if r.schema.Fields[int(col)].Type == arrow.FLOAT64 {
		return int64(r.ProjectedRow.Float64(i))
	}
	switch r.P.Layout.AttrSize(col) {
	case 8:
		return r.ProjectedRow.Int64(i)
	case 4:
		return int64(r.ProjectedRow.Int32(i))
	case 2:
		return int64(r.ProjectedRow.Int16(i))
	default:
		return int64(r.ProjectedRow.Int8(i))
	}
}

// valueAt resolves name for a getter: ok only when the column exists in
// the projection and is non-NULL.
func (r *Row) valueAt(name string) (int, bool) {
	_, i, err := r.col(name)
	if err != nil || r.ProjectedRow.IsNull(i) {
		return -1, false
	}
	return i, true
}

// Int64 loads the named fixed-width column widened to int64; 0 when the
// column is absent or NULL (check Null for the distinction).
func (r *Row) Int64(name string) int64 {
	if i, ok := r.valueAt(name); ok {
		return r.intAt(i)
	}
	return 0
}

// Int32 loads the named column as int32 (see Int64 for absent/NULL).
func (r *Row) Int32(name string) int32 { return int32(r.Int64(name)) }

// Int16 loads the named column as int16 (see Int64 for absent/NULL).
func (r *Row) Int16(name string) int16 { return int16(r.Int64(name)) }

// Int8 loads the named column as int8 (see Int64 for absent/NULL).
func (r *Row) Int8(name string) int8 { return int8(r.Int64(name)) }

// Float64 loads the named FLOAT64 column (integer columns convert by
// value); 0 when absent or NULL.
func (r *Row) Float64(name string) float64 {
	if i, ok := r.valueAt(name); ok {
		if r.schema.Fields[int(r.P.Cols[i])].Type == arrow.FLOAT64 {
			return r.ProjectedRow.Float64(i)
		}
		return float64(r.intAt(i))
	}
	return 0
}

// String loads the named varlen column as a string; "" when absent or NULL.
func (r *Row) String(name string) string { return string(r.Bytes(name)) }

// Bytes loads the named varlen column; nil when absent or NULL. The slice
// may alias engine storage (a row filled by Select, a scan or an index
// read) or the buffer handed to Set: it must not be written, and it is
// valid until the row's next use (Reset, Set, or another read into it) —
// copy it to retain it longer.
func (r *Row) Bytes(name string) []byte {
	if i, ok := r.valueAt(name); ok {
		return r.Varlen(i)
	}
	return nil
}

// Null reports whether the named column is NULL (or absent from the
// projection).
func (r *Row) Null(name string) bool {
	_, ok := r.valueAt(name)
	return !ok
}
