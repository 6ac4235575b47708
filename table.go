package mainline

import (
	"io"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
)

// Table wraps a catalog table with the handle-scoped data API: every read
// and write takes a *Txn. The embedded catalog.Table keeps schema, layout,
// index, and block inspection available.
type Table struct {
	*catalog.Table
	eng *Engine
}

// NewRow allocates a full-width row for inserts.
func (t *Table) NewRow() *Row {
	return &Row{ProjectedRow: t.AllColumnsProjection().NewRow(), schema: t.Schema}
}

// NewRowFor allocates a row over the named columns only — the shape for
// partial updates and projected reads.
func (t *Table) NewRowFor(cols ...string) (*Row, error) {
	proj, err := t.Table.ProjectionOf(cols...)
	if err != nil {
		return nil, err
	}
	return &Row{ProjectedRow: proj.NewRow(), schema: t.Schema}, nil
}

// Insert adds a tuple with the values of row (columns absent from the
// row's projection become NULL) and returns its slot.
func (t *Table) Insert(tx *Txn, row *Row) (TupleSlot, error) {
	if err := tx.writable(); err != nil {
		return 0, err
	}
	return t.DataTable.Insert(tx.raw, row.ProjectedRow)
}

// Update applies the values in row to the tuple at slot. A concurrent
// writer of the same tuple surfaces as ErrWriteConflict — abort and retry
// on a fresh snapshot (Engine.Update automates that).
func (t *Table) Update(tx *Txn, slot TupleSlot, row *Row) error {
	if err := tx.writable(); err != nil {
		return err
	}
	return t.DataTable.Update(tx.raw, slot, row.ProjectedRow)
}

// Delete removes the tuple at slot from tx's snapshot onward.
func (t *Table) Delete(tx *Txn, slot TupleSlot) error {
	if err := tx.writable(); err != nil {
		return err
	}
	return t.DataTable.Delete(tx.raw, slot)
}

// Select materializes the version of the tuple at slot visible to tx into
// out. found is false when the tuple does not exist in tx's snapshot.
// Varlen values read into out may alias engine storage: they must not be
// written, and they are valid until out's next use (see Row.Bytes).
func (t *Table) Select(tx *Txn, slot TupleSlot, out *Row) (found bool, err error) {
	if err := tx.usable(); err != nil {
		return false, err
	}
	return t.DataTable.Select(tx.raw, slot, out.ProjectedRow)
}

// Scan visits every tuple visible to tx, materializing the named columns
// (all columns when cols is nil) and invoking fn: Filter with no
// predicate. fn must not retain row. Returning false from fn stops the
// scan.
func (t *Table) Scan(tx *Txn, cols []string, fn func(slot TupleSlot, row *Row) bool) error {
	return t.Filter(tx, nil, cols, fn)
}

// CountVisible returns the number of tuples visible to tx.
func (t *Table) CountVisible(tx *Txn) (int, error) {
	if err := tx.usable(); err != nil {
		return 0, err
	}
	return t.DataTable.CountVisible(tx.raw), nil
}

// ExportBatches streams the table as Arrow record batches in tx's
// snapshot, one per block: a frozen block is handed over zero-copy
// (zeroCopy true), a hot or evicted block is materialized into a batch fn
// owns. A zero-copy batch aliases block memory and is valid only until fn
// returns — the block cannot thaw while fn runs, so the batch never shows
// a later write; copy what must outlive the callback. For the same reason
// fn must not write to the table itself: a write to the block being
// exported waits for fn to return. fn returning an error stops the
// export. It reports how many blocks took each path.
func (t *Table) ExportBatches(tx *Txn, fn func(rb *RecordBatch, zeroCopy bool) error) (frozen, materialized int, err error) {
	if err := tx.usable(); err != nil {
		return 0, 0, err
	}
	return t.Table.StreamBatches(tx.raw, fn)
}

// ExportIPC streams the table to w in the Arrow IPC format: frozen blocks
// zero-copy, hot blocks transactionally materialized. It returns bytes
// written and how many blocks took each path.
func (t *Table) ExportIPC(w io.Writer, tx *Txn) (written int64, frozen, materialized int, err error) {
	wr := arrow.NewWriter(w)
	frozen, materialized, err = t.ExportBatches(tx, func(rb *RecordBatch, _ bool) error {
		// Schemas can differ per block (dictionary-compressed vs hot
		// materialized); re-announce before each batch.
		if err := wr.WriteSchema(rb.Schema); err != nil {
			return err
		}
		return wr.WriteBatch(rb)
	})
	if err == nil {
		err = wr.Close()
	}
	return wr.BytesWritten, frozen, materialized, err
}
