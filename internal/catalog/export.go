package catalog

import (
	"fmt"

	"mainline/internal/arrow"
	"mainline/internal/core"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// Every Arrow record batch that leaves the engine — export, DoGet,
// checkpoint — comes from core's batch scan through one of the two
// producers below, which apply the paper's export rule (§5, §6.3): a
// frozen block is handed over zero-copy, anything else is copied in the
// reading transaction's snapshot by one column-wise appender.

// ExportBlockZeroCopy wraps a frozen block's buffers as an Arrow record
// batch without copying any tuple data — the payoff of storing data in the
// analytical format (§5). The caller must hold the block's in-place read
// registration (BeginInPlaceRead) for the batch's lifetime, or otherwise
// guarantee the block stays frozen.
func (t *Table) ExportBlockZeroCopy(b *storage.Block) (*arrow.RecordBatch, error) {
	if b.State() != storage.StateFrozen {
		return nil, fmt.Errorf("catalog: block %d is %s, not frozen", b.ID, b.State())
	}
	if !b.Resident() {
		// The buffers this export would alias are evicted; StreamBatches
		// copies such blocks out of the cold tier instead.
		return nil, fmt.Errorf("catalog: block %d is evicted, cannot export zero-copy", b.ID)
	}
	return t.FrozenBatch(b)
}

// FrozenBatch wraps a resident frozen block's buffers without checking its
// state. Under an in-place read registration taken while the block was
// Frozen, a writer (MarkHot) or the evictor may already have moved the
// state on to Thawing or Freezing, but both wait for the registration to
// end before they touch the buffers. It is also the evictor's encoder
// (tier.Producer): an evicted block is stored as the IPC stream of this
// batch.
func (t *Table) FrozenBatch(b *storage.Block) (*arrow.RecordBatch, error) {
	rows := b.FrozenRows()
	layout := t.Layout()
	cols := make([]*arrow.Array, 0, t.Schema.NumFields())
	fields := make([]arrow.Field, 0, t.Schema.NumFields())
	for i, f := range t.Schema.Fields {
		col := storage.ColumnID(i)
		validity := b.FrozenValidity(col)
		nulls := b.NullCount(col)
		switch {
		case !layout.IsVarlen(col):
			cols = append(cols, arrow.NewFixedArray(f.Type, rows, b.FrozenFixedData(col), validity, nulls))
			fields = append(fields, f)
		case b.FrozenDictCol(col) != nil:
			d := b.FrozenDictCol(col)
			dict := arrow.NewVarlenArray(arrow.STRING, d.NumEntries, d.DictOffsets, d.DictValues, nil, 0)
			cols = append(cols, arrow.NewDictArray(rows, d.Codes, dict, validity, nulls))
			fields = append(fields, arrow.Field{Name: f.Name, Type: arrow.DICT32, Nullable: f.Nullable})
		default:
			fv := b.FrozenVarlenCol(col)
			if fv == nil || fv.Offsets == nil {
				return nil, fmt.Errorf("catalog: frozen block %d missing gather output for column %s", b.ID, f.Name)
			}
			typ := f.Type
			if typ == arrow.DICT32 {
				typ = arrow.STRING
			}
			cols = append(cols, arrow.NewVarlenArray(typ, rows, fv.Offsets, fv.Values, validity, nulls))
			fields = append(fields, arrow.Field{Name: f.Name, Type: typ, Nullable: f.Nullable})
		}
	}
	return arrow.NewRecordBatch(arrow.NewSchema(fields...), cols)
}

// SchemaOf returns the Arrow schema of proj's columns (nil = all).
func (t *Table) SchemaOf(proj *storage.Projection) *arrow.Schema {
	if proj == nil || proj == t.AllColumnsProjection() {
		return t.Schema
	}
	fields := make([]arrow.Field, proj.NumCols())
	for i, col := range proj.Cols {
		fields[i] = t.Schema.Fields[col]
	}
	return arrow.NewSchema(fields...)
}

// appendRows copies rows [lo, hi) of b into bb, one column at a time.
// Fixed-width values move as raw little-endian bytes — in one append when
// the rows are contiguous and NULL-free.
func appendRows(bb *arrow.BatchBuilder, b *core.Batch, lo, hi int) {
	sel := b.SelIndices()
	for ci, bld := range bb.Cols {
		if b.Projection().IsVarlenAt(ci) {
			for i := lo; i < hi; i++ {
				if b.IsNull(ci, i) {
					bld.AppendNull()
				} else {
					bld.AppendBytes(b.Bytes(ci, i))
				}
			}
			continue
		}
		data, valid, w := b.RawFixed(ci)
		if sel == nil && valid == nil {
			bld.AppendFixed(data[lo*w : hi*w])
			continue
		}
		for i := lo; i < hi; i++ {
			idx := i
			if sel != nil {
				idx = int(sel[i])
			}
			if valid != nil && !valid.Test(idx) {
				bld.AppendNull()
			} else {
				bld.AppendFixed(data[idx*w : (idx+1)*w])
			}
		}
	}
}

// StreamBatches exports every row visible to tx block by block, handing
// fn one record batch per non-empty block. A resident frozen block is
// wrapped zero-copy (zeroCopy true) while the scan holds its in-place read
// registration: fn may write the buffers to a socket without racing a
// concurrent thaw-and-update, but must not keep the batch once it
// returns. Any other block — hot, or evicted and read through the cold
// tier — is copied in tx's snapshot into a batch fn owns (§6.3: "if a
// block is not frozen, the DBMS must materialize it transactionally before
// sending"). fn returning an error stops the walk; the registration is
// released on every path. It reports how many blocks took each path — the
// quantity Figure 15 varies.
func (t *Table) StreamBatches(tx *txn.Transaction, fn func(rb *arrow.RecordBatch, zeroCopy bool) error) (frozen, materialized int, err error) {
	bb := arrow.NewBatchBuilder(t.Schema)
	for _, b := range t.Blocks() {
		var fnErr error
		err := t.ScanBlockBatches(tx, b, nil, nil, func(batch *core.Batch) bool {
			blk := batch.InPlaceBlock()
			if blk == nil {
				appendRows(bb, batch, 0, batch.Len())
				return true
			}
			rb, e := t.FrozenBatch(blk)
			if e == nil {
				frozen++
				e = fn(rb, true)
			}
			fnErr = e
			return e == nil
		})
		if err == nil {
			err = fnErr
		}
		if err == nil && bb.Len() > 0 {
			var rb *arrow.RecordBatch
			if rb, err = bb.Finish(); err == nil {
				materialized++
				err = fn(rb, false)
			}
		}
		if err != nil {
			return frozen, materialized, err
		}
	}
	return frozen, materialized, nil
}

// snapshotBatchRows is the row count of every batch SnapshotBatches cuts
// but the last; it bounds builder memory while scanning.
const snapshotBatchRows = 8192

// SnapshotBatches copies the rows visible to tx that satisfy pred (nil =
// all) into owned record batches of proj's columns (nil = all), cutting a
// batch every snapshotBatchRows rows, and hands each to fn with the
// physical slots of its rows in row order. Every row is the version
// visible at tx's snapshot, so over all columns the result is a consistent
// checkpoint anchored at tx.StartTs(); the slot list is the checkpoint's
// recovery sidecar — WAL-tail updates logged against pre-checkpoint slots
// resolve through it. check, if non-nil, runs before each block — also
// one that no row of matches — and an error from it stops the scan and is
// returned. It returns the number of rows delivered.
func (t *Table) SnapshotBatches(tx *txn.Transaction, proj *storage.Projection, pred *core.Predicate, check func() error, fn func(rb *arrow.RecordBatch, slots []storage.TupleSlot) error) (int, error) {
	bb := arrow.NewBatchBuilder(t.SchemaOf(proj))
	slots := make([]storage.TupleSlot, 0, snapshotBatchRows)
	total := 0
	flush := func() error {
		if len(slots) == 0 {
			return nil
		}
		rb, err := bb.Finish()
		if err == nil {
			err = fn(rb, slots)
		}
		if err == nil {
			total += len(slots)
		}
		slots = slots[:0]
		return err
	}
	var fnErr error
	appendBatch := func(b *core.Batch) bool {
		for lo := 0; lo < b.Len(); {
			hi := min(b.Len(), lo+snapshotBatchRows-len(slots))
			appendRows(bb, b, lo, hi)
			for i := lo; i < hi; i++ {
				slots = append(slots, b.Slot(i))
			}
			lo = hi
			if len(slots) == snapshotBatchRows {
				if fnErr = flush(); fnErr != nil {
					return false
				}
			}
		}
		return true
	}
	for _, b := range t.Blocks() {
		if check != nil {
			if err := check(); err != nil {
				return total, err
			}
		}
		if err := t.ScanBlockBatches(tx, b, proj, pred, appendBatch); err != nil {
			return total, err
		}
		if fnErr != nil {
			return total, fnErr
		}
	}
	return total, flush()
}
