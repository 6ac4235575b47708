// Package core implements the paper's Data Table API (§3.1): the
// abstraction layer through which transactions read and write tuples. It
// materializes the correct tuple version for hot blocks by copying the
// latest version and replaying before-images down the version chain, and
// elides that work entirely for frozen blocks, which are read in place
// under the block's reader counter (§4.1).
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mainline/internal/arrow"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// Errors surfaced by Data Table operations.
var (
	// ErrWriteConflict is returned when a transaction tries to write a tuple
	// whose newest version it cannot see — the paper disallows write-write
	// conflicts to avoid cascading rollbacks.
	ErrWriteConflict = errors.New("core: write-write conflict")
	// ErrNotFound is returned for writes against a tuple whose latest
	// version is deleted or absent.
	ErrNotFound = errors.New("core: tuple not found")
	// ErrTxnFinished is returned when operating on a finished transaction.
	ErrTxnFinished = errors.New("core: transaction already finished")
	// ErrSlotOccupied is returned by InsertIntoSlot when the target slot has
	// a live version chain (compaction lost a race).
	ErrSlotOccupied = errors.New("core: slot occupied")
	// ErrIndexAttached is returned by LoadBatch on a table with an
	// attached index, whose maintenance a bulk load would skip.
	ErrIndexAttached = errors.New("core: table has an attached index")
)

// DataTable is one table's storage: a set of blocks sharing a layout, an
// insertion point, and the MVCC read/write protocol.
type DataTable struct {
	// ID is the catalog identifier used in redo records.
	ID uint32
	// Name is the table's human-readable name.
	Name string

	reg    *storage.Registry
	layout *storage.BlockLayout

	mu     sync.RWMutex
	blocks []*storage.Block
	tail   *storage.Block

	// allColumns is the identity projection, reused for full-row reads.
	allColumns *storage.Projection

	// scanStats counts scan work (see ScanStats).
	scanStats scanCounters
	// indexes holds the attached engine-managed indexes (copy-on-write:
	// the write path loads the slice once per operation, attachment
	// replaces it under mu).
	indexes atomic.Pointer[[]*TableIndex]
	// scratchPools holds per-projection pools of hot-block staging areas
	// (see getScratch); scanProjCache memoizes predicate-extended
	// projections (see scanProjFor).
	scratchPools  sync.Map
	scanProjCache sync.Map
	// coldTier serves reads of evicted blocks and re-thaws them for
	// writes; nil when the engine runs without an object store.
	coldTier atomic.Pointer[coldTierRef]
}

// NewDataTable creates a table with the given layout and one empty block.
func NewDataTable(reg *storage.Registry, layout *storage.BlockLayout, id uint32, name string) *DataTable {
	t := &DataTable{ID: id, Name: name, reg: reg, layout: layout}
	t.allColumns = storage.MustProjection(layout, layout.AllColumns())
	t.tail = storage.NewBlock(reg, layout)
	t.blocks = []*storage.Block{t.tail}
	return t
}

// Layout returns the table's block layout.
func (t *DataTable) Layout() *storage.BlockLayout { return t.layout }

// Registry returns the block registry backing the table.
func (t *DataTable) Registry() *storage.Registry { return t.reg }

// AllColumnsProjection returns the shared identity projection.
func (t *DataTable) AllColumnsProjection() *storage.Projection { return t.allColumns }

// Blocks returns a snapshot of the table's block list.
func (t *DataTable) Blocks() []*storage.Block {
	return append([]*storage.Block(nil), t.blockList()...)
}

// blockList returns the current block list without copying it, for
// readers that only iterate. Appends write past the returned length and
// RemoveBlock replaces the array, so the result never changes under its
// holder; it must not be modified.
func (t *DataTable) blockList() []*storage.Block {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.blocks[:len(t.blocks):len(t.blocks)]
}

// NumBlocks reports the current block count.
func (t *DataTable) NumBlocks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.blocks)
}

// RemoveBlock detaches an emptied block from the table and retires it from
// the registry (compaction recycles blocks; paper §4.3 Phase 1).
func (t *DataTable) RemoveBlock(b *storage.Block) {
	t.mu.Lock()
	if i := slices.Index(t.blocks, b); i >= 0 {
		t.blocks = slices.Delete(slices.Clone(t.blocks), i, i+1)
	}
	if t.tail == b {
		if n := len(t.blocks); n > 0 {
			t.tail = t.blocks[n-1]
		} else {
			t.tail = storage.NewBlock(t.reg, t.layout)
			t.blocks = append(t.blocks, t.tail)
		}
	}
	t.mu.Unlock()
	t.reg.Retire(b)
}

// allocateSlot reserves an insertion slot, growing the table when the tail
// block fills.
func (t *DataTable) allocateSlot() (*storage.Block, uint32) {
	for {
		t.mu.RLock()
		tail := t.tail
		t.mu.RUnlock()
		if slot, ok := tail.TryAllocateSlot(); ok {
			return tail, slot
		}
		t.mu.Lock()
		if t.tail == tail { // nobody else grew the table yet
			nb := storage.NewBlock(t.reg, t.layout)
			t.blocks = append(t.blocks, nb)
			t.tail = nb
		}
		t.mu.Unlock()
	}
}

// Insert adds a tuple with the values of row (columns absent from the
// projection become null) and returns its slot.
func (t *DataTable) Insert(tx *txn.Transaction, row *storage.ProjectedRow) (storage.TupleSlot, error) {
	if tx.Finished() {
		return 0, ErrTxnFinished
	}
	block, offset := t.allocateSlot()
	if err := t.markHot(block); err != nil {
		return 0, err
	}
	slot := storage.NewTupleSlot(block.ID, offset)
	if err := t.insertAt(tx, block, slot, row); err != nil {
		// Fresh slots have no chain; this cannot happen unless slots are
		// reused incorrectly.
		return 0, err
	}
	return slot, nil
}

// InsertIntoSlot places a tuple at a specific recycled slot — the
// compactor's primitive for filling gaps (§4.3 Phase 1). Unlike Insert it
// fails if the slot still has a version chain or is allocated.
func (t *DataTable) InsertIntoSlot(tx *txn.Transaction, slot storage.TupleSlot, row *storage.ProjectedRow) error {
	if tx.Finished() {
		return ErrTxnFinished
	}
	block := t.reg.BlockFor(slot)
	if block == nil {
		return ErrNotFound
	}
	offset := slot.Offset()
	if block.Allocated(offset) {
		return ErrSlotOccupied
	}
	if err := t.markHot(block); err != nil {
		return err
	}
	// A refilled slot's new tuple carries keys its index entries were
	// not published under: index reads of this block re-encode keys.
	block.MarkRewritten(storage.AllColumnsMask)
	if err := t.insertAt(tx, block, slot, row); err != nil {
		return err
	}
	if offset >= block.InsertHead() {
		block.SetInsertHead(offset + 1)
	}
	return nil
}

// insertAt installs row as a new tuple at slot, which must have no version
// chain: the insert record is published before any in-place state becomes
// visible.
func (t *DataTable) insertAt(tx *txn.Transaction, block *storage.Block, slot storage.TupleSlot, row *storage.ProjectedRow) error {
	offset := slot.Offset()
	rec := tx.NewUndoRecord(storage.KindInsert, slot, nil)
	if !block.CASVersionPtr(offset, nil, rec) {
		// Retract the unpublished record: rolling it back at Abort would
		// clear the allocation bit of a tuple another writer owns.
		tx.DropLastUndo()
		return ErrSlotOccupied
	}
	block.WriteTuple(offset, row)
	block.SetAllocated(offset, true)
	tx.LogRedo(t.ID, slot, storage.KindInsert, row)
	t.bufferIndexInserts(tx, row, slot)
	return nil
}

// LoadBatch installs every row of rb as a committed base tuple: an
// allocated slot holding its values with a nil version pointer, which
// every snapshot reads in place — the state GC leaves once no snapshot
// needs a tuple's versions (§3.1–3.3). No undo record, redo record or
// index delta is produced, so LoadBatch is for bootstrap only: the caller
// holds the table alone, with no transaction active and no background loop
// running. It refuses a table with an attached index rather than skip that
// index's maintenance. rb's schema must be the table's; fixed-width values
// are copied from the Arrow value buffers, whose layout the block shares,
// and varlen values go through WriteVarlen. Returns the new slots in row
// order.
func (t *DataTable) LoadBatch(rb *arrow.RecordBatch) ([]storage.TupleSlot, error) {
	if len(t.indexList()) > 0 {
		return nil, ErrIndexAttached
	}
	if len(rb.Columns) != t.layout.NumColumns() {
		return nil, fmt.Errorf("core: batch has %d columns, table %q has %d", len(rb.Columns), t.Name, t.layout.NumColumns())
	}
	slots := make([]storage.TupleSlot, rb.NumRows)
	var hot *storage.Block
	for r := range slots {
		block, slot := t.allocateSlot()
		if block != hot {
			if err := t.markHot(block); err != nil {
				return nil, err
			}
			hot = block
		}
		for c, arr := range rb.Columns {
			col := storage.ColumnID(c)
			switch {
			case arr.IsNull(r):
				block.WriteNull(col, slot)
			case t.layout.IsVarlen(col):
				block.WriteVarlen(col, slot, arr.Bytes(r))
			default:
				w := t.layout.AttrSize(col)
				block.WriteFixed(col, slot, arr.Values[r*w:(r+1)*w])
			}
		}
		block.SetAllocated(slot, true)
		slots[r] = storage.NewTupleSlot(block.ID, slot)
	}
	return slots, nil
}

// canWrite implements the paper's no-write-write-conflict rule: the newest
// version must be ours, or committed no later than our snapshot.
func canWrite(tx *txn.Transaction, head *storage.UndoRecord) bool {
	if head == nil {
		return true
	}
	ts := head.Timestamp()
	if ts == tx.TxnTs() {
		return true // our own previous write
	}
	if txn.IsUncommitted(ts) {
		return false
	}
	return ts <= tx.StartTs()
}

// Update applies the values in update to the tuple at slot, installing a
// before-image delta on the version chain. The delta covers exactly the
// updated columns (paper: deltas are physical before-images of the modified
// attributes).
func (t *DataTable) Update(tx *txn.Transaction, slot storage.TupleSlot, update *storage.ProjectedRow) error {
	if tx.Finished() {
		return ErrTxnFinished
	}
	block := t.reg.BlockFor(slot)
	if block == nil {
		return ErrNotFound
	}
	if err := t.markHot(block); err != nil {
		return err
	}
	offset := slot.Offset()

	head := block.VersionPtr(offset)
	if !canWrite(tx, head) {
		return ErrWriteConflict
	}
	if !block.Allocated(offset) {
		return ErrNotFound // latest version is deleted
	}

	// Capture the before-image of exactly the columns being modified. The
	// delta outlives this call on the version chain: its inline values are
	// copied into its own storage and spilled ones alias their immutable
	// backing. A version published since head was read would fail the CAS
	// below; fail now instead.
	delta := update.P.NewRow()
	if !copyInPlace(block, offset, head, cellSink{out: delta}) {
		return ErrWriteConflict
	}
	// Pre-image index keys must also be read before the in-place writes
	// land; they are buffered only if the CAS below wins.
	var changeBuf [2]indexKeyChange
	idxChanges := t.computeIndexUpdates(tx, block, offset, head, update, changeBuf[:0])
	// Mark the columns rewritten before the new version is published, so
	// an index reader that finds them unmarked after probing its tree has
	// seen no entry this update publishes (see TableIndex.check).
	block.MarkRewritten(update.P.Mask())

	rec := tx.NewUndoRecord(storage.KindUpdate, slot, delta)
	rec.SetNext(head)
	if !block.CASVersionPtr(offset, head, rec) {
		// The record never reached the chain; retract it, or Abort would
		// roll back a write that never happened and stomp the winner's
		// committed bytes with our stale before-image.
		tx.DropLastUndo()
		return ErrWriteConflict // another writer raced us
	}
	bufferIndexUpdates(tx, idxChanges, slot)

	// In-place update after the record is published: any reader that copies
	// torn bytes finds this record on the chain and repairs its copy with
	// the before-image.
	block.WriteRow(offset, update)
	tx.LogRedo(t.ID, slot, storage.KindUpdate, update)
	return nil
}

// Delete removes the tuple at slot by clearing its allocation bit; contents
// stay in place for older snapshots (paper: deletes update the allocation
// bitmap instead of the contents).
func (t *DataTable) Delete(tx *txn.Transaction, slot storage.TupleSlot) error {
	if tx.Finished() {
		return ErrTxnFinished
	}
	block := t.reg.BlockFor(slot)
	if block == nil {
		return ErrNotFound
	}
	if err := t.markHot(block); err != nil {
		return err
	}
	offset := slot.Offset()
	head := block.VersionPtr(offset)
	if !canWrite(tx, head) {
		return ErrWriteConflict
	}
	if !block.Allocated(offset) {
		return ErrNotFound
	}
	var changeBuf [2]indexKeyChange
	idxChanges := t.computeIndexRemovals(tx, block, offset, head, changeBuf[:0])
	rec := tx.NewUndoRecord(storage.KindDelete, slot, nil)
	rec.SetNext(head)
	if !block.CASVersionPtr(offset, head, rec) {
		tx.DropLastUndo() // unpublished record must not reach Abort
		return ErrWriteConflict
	}
	bufferIndexRemovals(tx, idxChanges, slot)
	block.SetAllocated(offset, false)
	tx.LogRedo(t.ID, slot, storage.KindDelete, nil)
	return nil
}

// Select materializes the version of the tuple at slot visible to tx into
// out. found is false when the tuple does not exist in tx's snapshot.
// Varlen values in out may alias engine storage (see Block.ReadVarlen and
// readCold): they must not be written, and they are valid until out's
// next use.
func (t *DataTable) Select(tx *txn.Transaction, slot storage.TupleSlot, out *storage.ProjectedRow) (found bool, err error) {
	block := t.reg.BlockFor(slot)
	if block == nil {
		return false, nil
	}
	offset := slot.Offset()
	if offset >= block.InsertHead() {
		return false, nil
	}
	// A frozen block is read under its reader counter, which keeps writers
	// and eviction out: its slots have no chains, so the read is one copy —
	// the early materialization the paper elides for cold blocks.
	frozen := block.BeginInPlaceRead()
	if frozen && !block.Resident() {
		// Buffers are evicted; serve the cached record batch. The
		// registration is released first — the batch is an immutable copy
		// of the observed frozen epoch, so it needs no pin.
		block.EndInPlaceRead()
		return t.selectCold(block, offset, out)
	}
	found = readVisible(tx, block, offset, cellSink{out: out})
	if frozen {
		block.EndInPlaceRead()
	}
	return found, nil
}

// readVisible runs the paper's read protocol (§3.1–3.2) for the slot at
// offset: copy its in-place values under the version-pointer re-check,
// retrying until no writer interleaved, then apply the before-images of
// the versions too new for tx. It reports whether the tuple exists in
// tx's snapshot; dst holds its values when it does.
func readVisible(tx *txn.Transaction, block *storage.Block, offset uint32, dst cellSink) bool {
	for {
		head := block.VersionPtr(offset)
		present := block.Allocated(offset)
		if head == nil && !present {
			return false // no version of the slot is visible to anyone
		}
		if copyInPlace(block, offset, head, dst) {
			return applyChain(tx, head, present, dst)
		}
		// A writer published a version mid-copy; retry. (GC unlinking
		// cannot re-link the same head, so pointer equality is sufficient.)
	}
}

// copyInPlace is the one reader of hot in-place attribute bytes. It copies
// the in-place values of dst's columns at offset and reports whether the
// version pointer still is head: writers publish their undo record before
// writing in place (Block.WriteRow), so a copy that raced a writer always
// fails the check. Varlen values follow Block.ReadVarlen's rule.
func copyInPlace(block *storage.Block, offset uint32, head *storage.UndoRecord, dst cellSink) bool {
	for j, col := range dst.proj().Cols {
		switch {
		case !block.IsValid(col, offset):
			dst.setNull(j)
		case block.Layout.IsVarlen(col):
			dst.setVarlen(j, block.ReadVarlen(col, offset))
		default:
			dst.setFixed(j, block.AttrBytes(col, offset))
		}
	}
	return block.VersionPtr(offset) == head
}

// applyChain is the one walk of a version chain. From head, newest first,
// it applies to dst the before-image of every version too new for tx and
// stops at the first version tx sees: its own, or one committed before tx
// started. present is the allocation bit read with head; applyChain
// returns whether the tuple exists in tx's snapshot.
func applyChain(tx *txn.Transaction, head *storage.UndoRecord, present bool, dst cellSink) bool {
	for rec := head; rec != nil; rec = rec.Next() {
		ts := rec.Timestamp()
		if ts == tx.TxnTs() || txn.Visible(ts, tx.StartTs()) {
			break
		}
		switch rec.Kind {
		case storage.KindUpdate:
			dst.apply(rec.Delta)
		case storage.KindInsert:
			present = false
		case storage.KindDelete:
			present = true
		}
	}
	return present
}

// cellSink is the destination of one slot read: the row out (Select,
// before-images, index pre-images) or, when out is nil, row i of a hot
// scan's scratch. A read writes every column of the sink's projection, so
// it overwrites whatever an earlier read left at the same place, NULLs
// included.
type cellSink struct {
	out *storage.ProjectedRow
	scr *scratch
	i   int
}

func (d cellSink) proj() *storage.Projection {
	if d.out != nil {
		return d.out.P
	}
	return d.scr.proj
}

func (d cellSink) setNull(j int) {
	if d.out != nil {
		d.out.SetNull(j)
		return
	}
	s := d.scr
	s.valid[j].Clear(d.i)
	if w := s.widths[j]; w > 0 {
		clear(s.fixed[j][d.i*w : (d.i+1)*w])
	} else {
		s.vars[j][d.i] = nil
	}
}

func (d cellSink) setFixed(j int, v []byte) {
	if d.out != nil {
		copy(d.out.FixedBytes(j), v)
		d.out.Nulls.Clear(j)
		return
	}
	s := d.scr
	w := s.widths[j]
	copy(s.fixed[j][d.i*w:(d.i+1)*w], v)
	s.valid[j].Set(d.i)
}

// setVarlen stores v under Block.ReadVarlen's rule: a value short enough
// to sit inline in a block entry is copied into the sink's own storage, a
// longer one is kept by reference.
func (d cellSink) setVarlen(j int, v []byte) {
	if d.out != nil {
		d.out.SetVarlenFromBlock(j, v)
		return
	}
	s := d.scr
	if n := len(v); n <= storage.VarlenInlineLimit {
		off := d.i * storage.VarlenInlineLimit
		own := s.inl[j][off : off+n : off+n]
		copy(own, v)
		v = own
	}
	s.vars[j][d.i] = v
	s.valid[j].Set(d.i)
}

// apply overlays a before-image onto the sink's columns it covers.
func (d cellSink) apply(delta *storage.ProjectedRow) {
	p := d.proj()
	for i, col := range delta.P.Cols {
		j := p.IndexOf(col)
		switch {
		case j < 0:
		case delta.IsNull(i):
			d.setNull(j)
		case delta.P.IsVarlenAt(i):
			d.setVarlen(j, delta.Varlen(i))
		default:
			d.setFixed(j, delta.FixedBytes(i))
		}
	}
}

// Filter visits every tuple visible to tx that satisfies pred (nil for
// all), materializing proj's columns into a reused row and invoking fn:
// the row adapter over ScanBatches, so frozen blocks are pruned and
// kernel-filtered before any row is built. fn must not retain row — its
// varlen values alias batch memory, valid only until fn returns.
// Returning false from fn stops the scan.
func (t *DataTable) Filter(tx *txn.Transaction, proj *storage.Projection, pred *Predicate, fn func(slot storage.TupleSlot, row *storage.ProjectedRow) bool) error {
	row := proj.NewRow()
	nc := proj.NumCols()
	return t.ScanBatches(tx, proj, pred, func(b *Batch) bool {
		for i := 0; i < b.Len(); i++ {
			// Every column is overwritten, so the row needs no Reset.
			for j := 0; j < nc; j++ {
				switch {
				case b.IsNull(j, i):
					row.SetNull(j)
				case proj.IsVarlenAt(j):
					row.SetVarlen(j, b.Bytes(j, i))
				default:
					b.FixedAt(j, i, row.FixedBytes(j))
					row.Nulls.Clear(j)
				}
			}
			if !fn(b.Slot(i), row) {
				return false
			}
		}
		return true
	})
}

// Scan visits every tuple visible to tx: Filter with no predicate.
func (t *DataTable) Scan(tx *txn.Transaction, proj *storage.Projection, fn func(slot storage.TupleSlot, row *storage.ProjectedRow) bool) error {
	return t.Filter(tx, proj, nil, fn)
}

// CountVisible returns the number of tuples visible to tx (test helper and
// consistency checks).
func (t *DataTable) CountVisible(tx *txn.Transaction) int {
	count := 0
	proj := storage.MustProjection(t.layout, []storage.ColumnID{0})
	_ = t.ScanBatches(tx, proj, nil, func(b *Batch) bool {
		count += b.Len()
		return true
	})
	return count
}
