// Cold-tier integration of the Data Table: the read paths fall through
// to the decoded Arrow record batch of a frozen block whose buffers are
// evicted, and the write paths re-thaw (fetch + reinstall buffers) before
// any in-place mutation. The tier itself lives in internal/tier; core sees
// it only through the two-method ColdTier interface, attached per table
// by the engine.
package core

import (
	"errors"
	"runtime"

	"mainline/internal/arrow"
	"mainline/internal/storage"
	"mainline/internal/util"
)

// ErrNoColdTier is returned when a read or write reaches an evicted
// block on a table with no cold tier attached — a configuration that
// can only arise from detaching the object store of a data dir that
// already evicted blocks.
var ErrNoColdTier = errors.New("core: block is evicted but no cold tier is attached")

// ColdTier is the slice of the tier manager the Data Table needs:
// fetch an evicted block's decoded record batch (cached), and re-install
// an evicted block's buffers ahead of a thaw.
type ColdTier interface {
	// Fetch returns the block's record batch through the tier cache,
	// checked against the block's layout. The result is immutable and
	// shared.
	Fetch(b *storage.Block) (*arrow.RecordBatch, error)
	// Rethaw rebuilds the block's in-RAM buffers from the store. Called
	// with the block's residency held at Rethawing; the caller flips
	// residency afterwards.
	Rethaw(b *storage.Block) error
}

// AttachColdTier wires the table to a cold tier. Safe to call once
// before the table serves traffic (engine Open / CreateTable).
func (t *DataTable) AttachColdTier(ct ColdTier) { t.coldTier.Store(&coldTierRef{ct}) }

type coldTierRef struct{ ct ColdTier }

func (t *DataTable) coldTierGet() ColdTier {
	if ref := t.coldTier.Load(); ref != nil {
		return ref.ct
	}
	return nil
}

// markHot is the tier-aware MarkHot every write path uses: thaw the
// block, re-thawing it from the cold tier first when its buffers are
// evicted. An error means the object store could not serve the payload;
// the write fails and the block stays frozen+evicted.
func (t *DataTable) markHot(block *storage.Block) error {
	for !block.MarkHotResident() {
		if err := t.rethawBlock(block); err != nil {
			return err
		}
	}
	return nil
}

// rethawBlock re-installs an evicted block's buffers, racing correctly
// with other writers (first CAS wins, the rest wait) and with the
// evictor's deferred buffer drop (which claims the same Rethawing slot).
func (t *DataTable) rethawBlock(block *storage.Block) error {
	for {
		switch block.Residency() {
		case storage.ResidencyResident:
			return nil
		case storage.ResidencyRethawing:
			runtime.Gosched()
		case storage.ResidencyEvicted:
			if !block.CASResidency(storage.ResidencyEvicted, storage.ResidencyRethawing) {
				continue
			}
			ct := t.coldTierGet()
			if ct == nil {
				block.SetResidency(storage.ResidencyEvicted)
				return ErrNoColdTier
			}
			if err := ct.Rethaw(block); err != nil {
				block.SetResidency(storage.ResidencyEvicted)
				return err
			}
			block.SetResidency(storage.ResidencyResident)
			return nil
		}
	}
}

// fetchCold returns the decoded record batch of an evicted block.
func (t *DataTable) fetchCold(block *storage.Block) (*arrow.RecordBatch, error) {
	ct := t.coldTierGet()
	if ct == nil {
		return nil, ErrNoColdTier
	}
	return ct.Fetch(block)
}

// coldSource presents an evicted block's record batch through the same
// view accessors a resident frozen block has, so the predicate kernels
// and batch consumers read either alike.
type coldSource struct{ rb *arrow.RecordBatch }

// FrozenFixedView builds the view of fixed-width column col.
func (s coldSource) FrozenFixedView(col storage.ColumnID) storage.FixedColView {
	a := s.rb.Columns[col]
	v := storage.FixedColView{Data: a.Values, Width: a.Type.ByteWidth()}
	if a.NullCount > 0 {
		v.Valid = a.Validity
	}
	return v
}

// FrozenVarlenView builds the view of varlen column col, plain or
// dictionary-encoded.
func (s coldSource) FrozenVarlenView(col storage.ColumnID) storage.VarlenColView {
	a := s.rb.Columns[col]
	var valid util.Bitmap
	if a.NullCount > 0 {
		valid = a.Validity
	}
	if a.Dict != nil {
		d := &storage.FrozenDict{Codes: a.Values, DictOffsets: a.Dict.Offsets, DictValues: a.Dict.Values, NumEntries: a.Dict.Length}
		return storage.NewVarlenColView(nil, nil, d, valid)
	}
	return storage.NewVarlenColView(a.Offsets, a.Values, nil, valid)
}

// selectCold is the point-read path for evicted blocks: the caller
// observed the block Frozen (BeginInPlaceRead succeeded, then released)
// and non-resident; the cached batch is that frozen epoch's content,
// which is the latest committed version for every active transaction —
// the same visibility argument as the resident in-place fast path. Point
// reads never thaw.
func (t *DataTable) selectCold(block *storage.Block, offset uint32, out *storage.ProjectedRow) (bool, error) {
	if !block.Allocated(offset) {
		return false, nil
	}
	rb, err := t.fetchCold(block)
	if err != nil {
		return false, err
	}
	if offset >= uint32(rb.NumRows) {
		return false, nil
	}
	readCold(rb, int(offset), out, false)
	return true, nil
}

// readCold copies row i of the batch into out's projected columns. When
// alias is true varlen values alias the immutable batch (scan rows,
// consumed inside the callback); when false they are heap copies (Select
// rows escape).
func readCold(rb *arrow.RecordBatch, i int, out *storage.ProjectedRow, alias bool) {
	for pi, col := range out.P.Cols {
		a := rb.Columns[col]
		switch {
		case a.NullCount > 0 && a.IsNull(i):
			out.SetNull(pi)
		case a.Type.FixedWidth():
			w := a.Type.ByteWidth()
			copy(out.FixedBytes(pi), a.Values[i*w:(i+1)*w])
			out.Nulls.Clear(pi)
		default:
			v := a.Bytes(i)
			if alias {
				v = v[:len(v):len(v)]
			} else {
				v = append([]byte(nil), v...)
			}
			out.SetVarlen(pi, v)
		}
	}
}

// scanColdBlock is the tuple-at-a-time scan path over an evicted block:
// iterate the frozen rows, skipping slots whose allocation bit (retained
// in RAM across eviction) is clear.
func (t *DataTable) scanColdBlock(block *storage.Block, rb *arrow.RecordBatch, row *storage.ProjectedRow, fn func(storage.TupleSlot, *storage.ProjectedRow) bool) bool {
	emitted := int64(0)
	defer func() { t.scanStats.tuplesEmitted.Add(emitted) }()
	t.scanStats.blocksCold.Add(1)
	for s := uint32(0); s < uint32(rb.NumRows); s++ {
		if !block.Allocated(s) {
			continue
		}
		row.Reset()
		readCold(rb, int(s), row, true)
		emitted++
		if !fn(storage.NewTupleSlot(block.ID, s), row) {
			return false
		}
	}
	return true
}

// coldBatch is the vectorized scan path over an evicted block: the same
// zone-map-pruned, kernel-filtered, view-backed flow as frozenBatch,
// pointed at the cached record batch instead of block memory.
func (t *DataTable) coldBatch(block *storage.Block, batch *Batch, pred *Predicate, fn func(*Batch) bool) (bool, error) {
	rb, err := t.fetchCold(block)
	if err != nil {
		return false, err
	}
	t.scanStats.blocksCold.Add(1)
	n := rb.NumRows
	if n == 0 {
		return true, nil
	}
	src := coldSource{rb}
	batch.setupCold(block, src)
	if pred != nil {
		sv := storage.GetSelectionVector(n)
		defer storage.PutSelectionVector(sv)
		sv.SetIndices(evalFrozenPred(src, pred, n, sv.Indices()[:0]))
		if sv.Len() == 0 {
			return true, nil
		}
		batch.sel = sv.Indices()
		batch.n = sv.Len()
	} else {
		batch.sel = nil
		batch.n = n
	}
	t.scanStats.tuplesEmitted.Add(int64(batch.n))
	return fn(batch), nil
}

// setupCold points the batch's column views at an evicted block's record
// batch. The batch presents as frozen — consumers see identical view
// semantics; Slot() still resolves through the block ID.
func (b *Batch) setupCold(block *storage.Block, src coldSource) {
	nc := b.proj.NumCols()
	if cap(b.fixedViews) < nc {
		b.fixedViews = make([]storage.FixedColView, nc)
		b.varlenViews = make([]storage.VarlenColView, nc)
	}
	b.fixedViews = b.fixedViews[:nc]
	b.varlenViews = b.varlenViews[:nc]
	for i, col := range b.proj.Cols {
		if b.proj.Layout.IsVarlen(col) {
			b.varlenViews[i] = src.FrozenVarlenView(col)
		} else {
			b.fixedViews[i] = src.FrozenFixedView(col)
		}
	}
	b.block = block
	b.frozen = true
	b.cold = true
	b.scr = nil
}
