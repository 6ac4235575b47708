package arrow

import "fmt"

// RecordBatch is a collection of equal-length arrays conforming to a schema
// — the unit of data interchange in Arrow and the unit our storage engine
// emits per frozen block.
type RecordBatch struct {
	Schema  *Schema
	Columns []*Array
	NumRows int
}

// NewRecordBatch validates column/schema agreement and builds a batch.
func NewRecordBatch(schema *Schema, cols []*Array) (*RecordBatch, error) {
	if len(cols) != schema.NumFields() {
		return nil, fmt.Errorf("arrow: %d columns for %d fields", len(cols), schema.NumFields())
	}
	rows := 0
	for i, c := range cols {
		if c.Type != schema.Fields[i].Type {
			return nil, fmt.Errorf("arrow: column %d type %s != field type %s", i, c.Type, schema.Fields[i].Type)
		}
		if i == 0 {
			rows = c.Length
		} else if c.Length != rows {
			return nil, fmt.Errorf("arrow: column %d length %d != %d", i, c.Length, rows)
		}
		if err := c.validate(); err != nil {
			return nil, err
		}
	}
	return &RecordBatch{Schema: schema, Columns: cols, NumRows: rows}, nil
}

// BatchBuilder accumulates the rows of one record batch column by column.
// It is reusable: Finish hands back the batch and starts a fresh one.
type BatchBuilder struct {
	Schema *Schema
	Cols   []*Builder
}

// NewBatchBuilder starts an empty batch of the given schema.
func NewBatchBuilder(schema *Schema) *BatchBuilder {
	bb := &BatchBuilder{Schema: schema, Cols: make([]*Builder, schema.NumFields())}
	bb.reset()
	return bb
}

func (bb *BatchBuilder) reset() {
	for i, f := range bb.Schema.Fields {
		bb.Cols[i] = NewBuilder(f.Type)
	}
}

// Len returns the number of rows appended since the last Finish.
func (bb *BatchBuilder) Len() int {
	if len(bb.Cols) == 0 {
		return 0
	}
	return bb.Cols[0].Len()
}

// Finish freezes the accumulated rows into a record batch and resets the
// builder for the next one.
func (bb *BatchBuilder) Finish() (*RecordBatch, error) {
	cols := make([]*Array, len(bb.Cols))
	for i, b := range bb.Cols {
		cols[i] = b.Finish()
	}
	bb.reset()
	return NewRecordBatch(bb.Schema, cols)
}

// Column returns the array for the named field, or nil.
func (rb *RecordBatch) Column(name string) *Array {
	idx := rb.Schema.FieldIndex(name)
	if idx < 0 {
		return nil
	}
	return rb.Columns[idx]
}

// Table is an ordered collection of record batches sharing a schema; the
// shape of a fully frozen storage table.
type Table struct {
	Schema  *Schema
	Batches []*RecordBatch
}

// NumRows sums the rows of all batches.
func (t *Table) NumRows() int {
	n := 0
	for _, b := range t.Batches {
		n += b.NumRows
	}
	return n
}

// AppendBatch adds a batch after checking schema compatibility.
func (t *Table) AppendBatch(b *RecordBatch) error {
	if !t.Schema.Equal(b.Schema) {
		return fmt.Errorf("arrow: batch schema %s incompatible with table schema %s", b.Schema, t.Schema)
	}
	t.Batches = append(t.Batches, b)
	return nil
}
