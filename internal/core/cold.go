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
	readCold(rb, int(offset), out)
	return true, nil
}

// readCold copies row i of the batch into out's projected columns. Varlen
// values alias the batch, which is immutable and shared (arrow's Bytes
// caps each value at its end).
func readCold(rb *arrow.RecordBatch, i int, out *storage.ProjectedRow) {
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
			out.SetVarlen(pi, a.Bytes(i))
		}
	}
}
