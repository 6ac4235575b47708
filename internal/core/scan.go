// Vectorized batch scans (the analytical read path). Instead of
// materializing every tuple through the version-chain protocol, the batch
// engine processes one block at a time: frozen blocks are pruned by
// freeze-time zone maps, filtered by typed kernels running directly over
// their Arrow buffers, and exposed zero-copy through column views under
// the block's reader counter; hot blocks stage each chunk of slots into a
// columnar scratch through the same read protocol Select runs (copy with a
// version-pointer re-check, then before-images only for versions too new
// for the reader), so the predicate kernels run over packed columns.
package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mainline/internal/arrow"
	"mainline/internal/storage"
	"mainline/internal/txn"
	"mainline/internal/util"
)

// HotBatchSize is the chunk size for hot-block batch scans: large enough
// to amortize per-batch overhead, small enough that the columnar scratch
// stays cache-resident.
const HotBatchSize = 1024

// --- Scan statistics ---------------------------------------------------------

// ScanStats counts scan work since table creation. Every multi-row read
// (ScanBatches and its row adapters Filter, Scan and CountVisible) goes
// through the batch scan and is counted here; per-slot Select reads are
// not.
type ScanStats struct {
	// BlocksFrozen counts blocks scanned in place under the reader counter.
	BlocksFrozen int64 `metric:"mainline_engine_scan_frozen_blocks_total"`
	// BlocksVersioned counts blocks scanned through the version-chain
	// protocol (hot, cooling, or freezing at scan time).
	BlocksVersioned int64 `metric:"mainline_engine_scan_versioned_blocks_total"`
	// BlocksPruned counts frozen blocks skipped entirely because their
	// zone map proved no row could match the predicate — pruned blocks
	// never take the in-place read counter.
	BlocksPruned int64 `metric:"mainline_engine_scan_pruned_blocks_total"`
	// BlocksCold counts evicted blocks served from the cold tier (cache
	// or object store).
	BlocksCold int64 `metric:"mainline_engine_scan_cold_blocks_total"`
	// BlocksPrunedCold counts the subset of BlocksPruned whose block was
	// evicted: pruning decided on the in-RAM zone map alone, so these
	// blocks incurred zero object-store reads.
	BlocksPrunedCold int64 `metric:"mainline_engine_scan_pruned_cold_blocks_total"`
	// TuplesEmitted counts tuples handed to scan callbacks.
	TuplesEmitted int64 `metric:"mainline_engine_scan_tuples_total"`
}

// Add accumulates o into s.
func (s *ScanStats) Add(o ScanStats) {
	s.BlocksFrozen += o.BlocksFrozen
	s.BlocksVersioned += o.BlocksVersioned
	s.BlocksPruned += o.BlocksPruned
	s.BlocksCold += o.BlocksCold
	s.BlocksPrunedCold += o.BlocksPrunedCold
	s.TuplesEmitted += o.TuplesEmitted
}

// scanCounters is the atomic backing store for ScanStats.
type scanCounters struct {
	blocksFrozen     atomic.Int64
	blocksVersioned  atomic.Int64
	blocksPruned     atomic.Int64
	blocksCold       atomic.Int64
	blocksPrunedCold atomic.Int64
	tuplesEmitted    atomic.Int64
}

// ScanStatsSnapshot returns the table's cumulative scan counters.
func (t *DataTable) ScanStatsSnapshot() ScanStats {
	return ScanStats{
		BlocksFrozen:     t.scanStats.blocksFrozen.Load(),
		BlocksVersioned:  t.scanStats.blocksVersioned.Load(),
		BlocksPruned:     t.scanStats.blocksPruned.Load(),
		BlocksCold:       t.scanStats.blocksCold.Load(),
		BlocksPrunedCold: t.scanStats.blocksPrunedCold.Load(),
		TuplesEmitted:    t.scanStats.tuplesEmitted.Load(),
	}
}

// --- Predicates --------------------------------------------------------------

// PredKind selects the typed comparison domain of a Predicate.
type PredKind uint8

// Predicate domains.
const (
	// PredInt compares fixed-width columns as signed integers of the
	// column's width.
	PredInt PredKind = iota
	// PredFloat compares 8-byte columns as float64.
	PredFloat
	// PredBytes compares variable-length columns lexicographically.
	PredBytes
)

// Predicate is a single-column range predicate in the shape the kernels
// evaluate: an inclusive integer range, a float range with per-bound
// strictness, or a bytes range with per-bound strictness. Point lookups
// (Eq) are ranges with lo == hi. NULL values never match.
type Predicate struct {
	// Col is the layout column the predicate applies to.
	Col storage.ColumnID
	// Kind selects the comparison domain.
	Kind PredKind
	// MatchNone marks a statically unsatisfiable predicate (e.g. an
	// equality value that overflows the column width); the scan emits
	// nothing without touching any block.
	MatchNone bool

	// LoInt/HiInt are the inclusive integer bounds (math.MinInt64 /
	// math.MaxInt64 for one-sided ranges).
	LoInt, HiInt int64
	// LoFloat/HiFloat are the float bounds (±Inf for one-sided ranges);
	// a strict flag excludes the bound itself.
	LoFloat, HiFloat             float64
	LoFloatStrict, HiFloatStrict bool
	// LoBytes/HiBytes are the bytes bounds (nil for one-sided ranges —
	// an empty-but-non-nil bound is a real bound).
	LoBytes, HiBytes             []byte
	LoBytesStrict, HiBytesStrict bool
}

// NewIntPred builds an inclusive integer range predicate.
func NewIntPred(col storage.ColumnID, lo, hi int64) *Predicate {
	return &Predicate{Col: col, Kind: PredInt, LoInt: lo, HiInt: hi, MatchNone: lo > hi}
}

// NewFloatPred builds a float range predicate with per-bound strictness.
// A NaN bound makes the predicate match nothing (every comparison against
// NaN is false, so no value can satisfy it).
func NewFloatPred(col storage.ColumnID, lo, hi float64, loStrict, hiStrict bool) *Predicate {
	return &Predicate{
		Col: col, Kind: PredFloat,
		LoFloat: lo, HiFloat: hi, LoFloatStrict: loStrict, HiFloatStrict: hiStrict,
		MatchNone: lo != lo || hi != hi || lo > hi || (lo == hi && (loStrict || hiStrict)),
	}
}

// NewBytesPred builds a lexicographic bytes range predicate. nil bounds are
// one-sided; bounds are copied by reference (callers must not mutate).
func NewBytesPred(col storage.ColumnID, lo, hi []byte, loStrict, hiStrict bool) *Predicate {
	p := &Predicate{
		Col: col, Kind: PredBytes,
		LoBytes: lo, HiBytes: hi, LoBytesStrict: loStrict, HiBytesStrict: hiStrict,
	}
	if lo != nil && hi != nil {
		if c := bytes.Compare(lo, hi); c > 0 || (c == 0 && (loStrict || hiStrict)) {
			p.MatchNone = true
		}
	}
	return p
}

// MatchNonePred builds the statically empty predicate.
func MatchNonePred(col storage.ColumnID) *Predicate {
	return &Predicate{Col: col, MatchNone: true}
}

// matchBytes reports whether v falls inside the bytes range.
func (p *Predicate) matchBytes(v []byte) bool {
	if p.LoBytes != nil {
		if c := bytes.Compare(v, p.LoBytes); c < 0 || (c == 0 && p.LoBytesStrict) {
			return false
		}
	}
	if p.HiBytes != nil {
		if c := bytes.Compare(v, p.HiBytes); c > 0 || (c == 0 && p.HiBytesStrict) {
			return false
		}
	}
	return true
}

// prunesBlock reports whether the zone map proves no row of the block can
// match — the predicate's range and the column's freeze-time [min, max]
// are disjoint, or the column was entirely NULL.
func (p *Predicate) prunesBlock(zm *storage.ZoneMap) bool {
	if p.MatchNone {
		return true
	}
	if int(p.Col) >= len(zm.Cols) {
		return false
	}
	cs := &zm.Cols[p.Col]
	if cs.AllNull(zm.Rows) {
		return true
	}
	switch p.Kind {
	case PredInt:
		if !cs.HasMinMax {
			return false
		}
		return cs.MaxInt < p.LoInt || cs.MinInt > p.HiInt
	case PredFloat:
		if !cs.HasFloat {
			// The column held values but none comparable (all NaN): no
			// range predicate can match.
			return true
		}
		if cs.MaxFloat < p.LoFloat || (p.LoFloatStrict && cs.MaxFloat == p.LoFloat) {
			return true
		}
		return cs.MinFloat > p.HiFloat || (p.HiFloatStrict && cs.MinFloat == p.HiFloat)
	case PredBytes:
		if !cs.HasMinMax {
			return false
		}
		if p.LoBytes != nil {
			if c := bytes.Compare(cs.MaxBytes, p.LoBytes); c < 0 || (c == 0 && p.LoBytesStrict) {
				return true
			}
		}
		if p.HiBytes != nil {
			if c := bytes.Compare(cs.MinBytes, p.HiBytes); c > 0 || (c == 0 && p.HiBytesStrict) {
				return true
			}
		}
	}
	return false
}

// validate checks the predicate against the table layout.
func (p *Predicate) validate(layout *storage.BlockLayout) error {
	if int(p.Col) >= layout.NumColumns() {
		return fmt.Errorf("core: predicate column %d out of range", p.Col)
	}
	varlen := layout.IsVarlen(p.Col)
	switch p.Kind {
	case PredBytes:
		if !varlen {
			return fmt.Errorf("core: bytes predicate on fixed-width column %d", p.Col)
		}
	case PredFloat:
		if varlen || layout.AttrSize(p.Col) != 8 {
			return fmt.Errorf("core: float predicate on column %d", p.Col)
		}
	case PredInt:
		if varlen || layout.AttrSize(p.Col) > 8 {
			return fmt.Errorf("core: integer predicate on column %d", p.Col)
		}
	}
	return nil
}

// --- Batch -------------------------------------------------------------------

// Batch is a column-oriented view of the visible tuples of (part of) one
// block. Frozen batches alias block memory zero-copy under the block's
// reader counter; hot batches read from a materialized columnar scratch.
// A batch, and every slice obtained from it, is valid only until the scan
// callback returns.
type Batch struct {
	block  *storage.Block
	proj   *storage.Projection
	frozen bool
	// cold marks a frozen-presenting batch over an evicted block's cached
	// payload rather than resident block memory.
	cold bool
	n    int
	// sel maps batch row -> block slot offset (frozen) or scratch row
	// (hot); nil means identity.
	sel []uint32

	// Frozen column views, indexed by projection position.
	fixedViews  []storage.FixedColView
	varlenViews []storage.VarlenColView

	scr *scratch
}

// batchPool recycles scan batches with their column-view arrays, so a
// scan over frozen or evicted blocks allocates no batch state. A batch is
// valid only until the scan callback returns, so the scan that took one
// puts it back when it ends.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

func getBatch(proj *storage.Projection) *Batch {
	b := batchPool.Get().(*Batch)
	b.proj = proj
	return b
}

// putBatch drops the batch's references to block memory, cached payloads
// and scratch, keeping only its view arrays, and pools it.
func putBatch(b *Batch) {
	clear(b.fixedViews)
	clear(b.varlenViews)
	*b = Batch{fixedViews: b.fixedViews[:0], varlenViews: b.varlenViews[:0]}
	batchPool.Put(b)
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// Frozen reports whether the batch aliases frozen block memory.
func (b *Batch) Frozen() bool { return b.frozen }

// NumCols returns the number of projected columns.
func (b *Batch) NumCols() int { return b.proj.NumCols() }

// Projection returns the batch's projection.
func (b *Batch) Projection() *storage.Projection { return b.proj }

// InPlaceBlock returns the block when the batch is the whole of a resident
// frozen block read in place — unfiltered, under the block's in-place read
// registration, which the scan holds until the callback returns — and nil
// for hot batches, evicted blocks' batches, and predicate selections.
// Inside the callback the block's frozen buffers cannot change, so a
// consumer may alias them directly (the zero-copy export).
func (b *Batch) InPlaceBlock() *storage.Block {
	if !b.frozen || b.cold || b.sel != nil {
		return nil
	}
	return b.block
}

func (b *Batch) idx(row int) uint32 {
	if b.sel != nil {
		return b.sel[row]
	}
	return uint32(row)
}

// Slot returns the tuple slot of batch row i.
func (b *Batch) Slot(i int) storage.TupleSlot {
	idx := b.idx(i)
	if b.frozen {
		return storage.NewTupleSlot(b.block.ID, idx)
	}
	return storage.NewTupleSlot(b.block.ID, b.scr.slots[idx])
}

// IsNull reports whether projected column col of row i is NULL.
func (b *Batch) IsNull(col, i int) bool {
	idx := int(b.idx(i))
	if b.frozen {
		if b.proj.IsVarlenAt(col) {
			return b.varlenViews[col].IsNull(idx)
		}
		return b.fixedViews[col].IsNull(idx)
	}
	return !b.scr.valid[col].Test(idx)
}

// Int64 loads projected column col of row i as int64 (8-byte columns).
func (b *Batch) Int64(col, i int) int64 {
	idx := int(b.idx(i))
	if b.frozen {
		return b.fixedViews[col].Int64At(idx)
	}
	return int64(binary.LittleEndian.Uint64(b.scr.fixed[col][idx*8:]))
}

// Int loads projected column col of row i widened to int64 by the
// column's width.
func (b *Batch) Int(col, i int) int64 {
	idx := int(b.idx(i))
	if b.frozen {
		return b.fixedViews[col].IntAt(idx)
	}
	w := b.scr.widths[col]
	data := b.scr.fixed[col]
	switch w {
	case 8:
		return int64(binary.LittleEndian.Uint64(data[idx*8:]))
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(data[idx*4:])))
	case 2:
		return int64(int16(binary.LittleEndian.Uint16(data[idx*2:])))
	default:
		return int64(int8(data[idx]))
	}
}

// Float64 loads projected column col of row i as float64 (8-byte columns).
func (b *Batch) Float64(col, i int) float64 {
	return math.Float64frombits(uint64(b.Int64(col, i)))
}

// Bytes returns the varlen value of projected column col of row i (nil for
// NULL). The slice aliases batch memory — valid only inside the callback.
func (b *Batch) Bytes(col, i int) []byte {
	idx := int(b.idx(i))
	if b.frozen {
		return b.varlenViews[col].BytesAt(idx)
	}
	return b.scr.vars[col][idx]
}

// FixedAt copies the raw fixed-width bytes of (col, row i) — the accessor
// for wide columns the typed getters do not cover.
func (b *Batch) FixedAt(col, i int, dst []byte) {
	idx := int(b.idx(i))
	w := b.proj.Layout.AttrSize(b.proj.Cols[col])
	if b.frozen {
		copy(dst, b.fixedViews[col].Data[idx*w:(idx+1)*w])
		return
	}
	copy(dst, b.scr.fixed[col][idx*w:(idx+1)*w])
}

// SelIndices exposes the batch's selection vector: the block-slot (frozen)
// or scratch-row (hot) positions of the batch's rows, nil when the batch
// covers rows 0..Len()-1 identically. Together with RawFixed it lets
// vectorized consumers (aggregation kernels) run over batch memory
// directly; the slice is valid only until the scan callback returns.
func (b *Batch) SelIndices() []uint32 { return b.sel }

// RawFixed exposes the packed value buffer, validity bitmap (nil = no
// nulls), and byte width of fixed-width projected column col — frozen
// batches alias block Arrow memory, hot batches the staging scratch. Row
// positions in the buffer are pre-selection; combine with SelIndices.
func (b *Batch) RawFixed(col int) (data []byte, valid util.Bitmap, width int) {
	if b.frozen {
		v := &b.fixedViews[col]
		return v.Data, v.Valid, v.Width
	}
	return b.scr.fixed[col], b.scr.valid[col], b.scr.widths[col]
}

// Dict returns the sorted frozen dictionary backing projected varlen
// column col, or nil — hot batches and plain-gathered frozen columns have
// none. A non-nil dictionary enables the code-space fast paths: group keys
// and join keys become int32 codes, decoded once per distinct code.
func (b *Batch) Dict(col int) *storage.FrozenDict {
	if !b.frozen {
		return nil
	}
	return b.varlenViews[col].Dict()
}

// DictCode returns the dictionary code of projected column col at row i.
// Only meaningful when Dict(col) is non-nil and the value is non-NULL.
func (b *Batch) DictCode(col, i int) int32 {
	return b.varlenViews[col].Dict().CodeAt(int(b.idx(i)))
}

// setupFrozen points the batch's column views at src's Arrow buffers: a
// resident frozen block's memory, or (cold) an evicted block's cached
// record batch. Either way the batch presents as frozen — consumers see
// identical view semantics, and Slot resolves through the block ID.
func (b *Batch) setupFrozen(block *storage.Block, src frozenViewSource, cold bool) {
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
	b.cold = cold
	b.scr = nil
}

// --- Hot-block scratch -------------------------------------------------------

// scratch is the columnar staging area for hot-block batches: readVisible
// materializes the visible version of each slot of a chunk straight into
// row n of the packed columns, and predicates then run over them exactly
// like they do over frozen memory.
type scratch struct {
	proj   *storage.Projection
	n      int
	slots  []uint32
	widths []int
	fixed  [][]byte // per column: packed values, nil for varlen columns
	valid  []util.Bitmap
	vars   [][][]byte // per column: value refs, nil for fixed columns
	// inl holds, per varlen column, VarlenInlineLimit bytes per row: the
	// scratch's own copies of values short enough to sit inline in a
	// block entry (see cellSink.setVarlen).
	inl [][]byte
}

func newScratch(proj *storage.Projection) *scratch {
	nc := proj.NumCols()
	s := &scratch{
		proj:   proj,
		slots:  make([]uint32, HotBatchSize),
		widths: make([]int, nc),
		fixed:  make([][]byte, nc),
		valid:  make([]util.Bitmap, nc),
		vars:   make([][][]byte, nc),
		inl:    make([][]byte, nc),
	}
	for i, col := range proj.Cols {
		if proj.Layout.IsVarlen(col) {
			s.vars[i] = make([][]byte, HotBatchSize)
			s.inl[i] = make([]byte, HotBatchSize*storage.VarlenInlineLimit)
		} else {
			w := proj.Layout.AttrSize(col)
			s.widths[i] = w
			s.fixed[i] = make([]byte, HotBatchSize*w)
		}
		s.valid[i] = util.NewBitmap(HotBatchSize)
	}
	return s
}

// getScratch borrows a staging area shaped for proj from the table's
// per-projection pool (projections are memoized, so the pool set stays
// small); putScratch returns it.
func (t *DataTable) getScratch(proj *storage.Projection) *scratch {
	pi, ok := t.scratchPools.Load(proj)
	if !ok {
		pi, _ = t.scratchPools.LoadOrStore(proj, &sync.Pool{})
	}
	if s, ok := pi.(*sync.Pool).Get().(*scratch); ok {
		return s
	}
	return newScratch(proj)
}

func (t *DataTable) putScratch(s *scratch) {
	if pi, ok := t.scratchPools.Load(s.proj); ok {
		pi.(*sync.Pool).Put(s)
	}
}

// scanProjKey memoizes hidden-predicate-column projections.
type scanProjKey struct {
	proj *storage.Projection
	col  storage.ColumnID
}

// scanProjFor returns proj extended with col as a hidden trailing column,
// building (and validating) it once per (projection, column) pair.
func (t *DataTable) scanProjFor(proj *storage.Projection, col storage.ColumnID) (*storage.Projection, error) {
	key := scanProjKey{proj, col}
	if p, ok := t.scanProjCache.Load(key); ok {
		return p.(*storage.Projection), nil
	}
	cols := make([]storage.ColumnID, 0, proj.NumCols()+1)
	cols = append(cols, proj.Cols...)
	cols = append(cols, col)
	p, err := storage.NewProjection(t.layout, cols)
	if err != nil {
		return nil, err
	}
	actual, _ := t.scanProjCache.LoadOrStore(key, p)
	return actual.(*storage.Projection), nil
}

// --- ScanBatches -------------------------------------------------------------

// scanPlan is the prepared, immutable description of one batch scan:
// validated predicate, exposed projection, and the (possibly extended)
// staging projection for hot blocks. A plan is cheap to prepare — the
// extended projection is memoized — and safe to share across the workers
// of a parallel scan, each of which drives its own blocks through
// batchScanBlock with private Batch/scratch state.
type scanPlan struct {
	proj     *storage.Projection
	scanProj *storage.Projection
	pred     *Predicate
	predIdx  int
	// empty marks a statically unsatisfiable predicate: the scan visits
	// nothing without touching any block.
	empty bool
}

// prepareScan validates pred against the layout and resolves the staging
// projection (the predicate column rides along as a hidden trailing column
// when it is not projected; see scanProjFor).
func (t *DataTable) prepareScan(proj *storage.Projection, pred *Predicate) (scanPlan, error) {
	if proj == nil {
		proj = t.allColumns
	}
	plan := scanPlan{proj: proj, scanProj: proj, pred: pred, predIdx: -1}
	if pred == nil {
		return plan, nil
	}
	if err := pred.validate(t.layout); err != nil {
		return scanPlan{}, err
	}
	if pred.MatchNone {
		plan.empty = true
		return plan, nil
	}
	plan.predIdx = proj.IndexOf(pred.Col)
	if plan.predIdx < 0 {
		sp, err := t.scanProjFor(proj, pred.Col)
		if err != nil {
			return scanPlan{}, err
		}
		plan.scanProj = sp
		plan.predIdx = proj.NumCols()
	}
	return plan, nil
}

// batchScanBlock runs one block of a prepared scan: frozen path (zone-map
// prune, kernel filter, zero-copy batch — falling through to the cold
// tier when the block is evicted) when the block is frozen, the
// columnar-scratch hot path otherwise. *scr is allocated lazily (many
// scans never meet a hot block); the caller returns it to the pool.
// cont is false when fn stopped the scan; an error means a cold fetch
// failed.
func (t *DataTable) batchScanBlock(tx *txn.Transaction, block *storage.Block, batch *Batch, scr **scratch, plan *scanPlan, fn func(*Batch) bool) (bool, error) {
	cont, handled, err := t.frozenBatch(block, batch, plan.pred, fn)
	if err != nil {
		return false, err
	}
	if handled {
		return cont, nil
	}
	if *scr == nil {
		*scr = t.getScratch(plan.scanProj)
	}
	return t.hotBatches(tx, block, batch, *scr, plan.pred, plan.predIdx, fn), nil
}

// ScanBatches visits every tuple visible to tx that satisfies pred,
// batch-at-a-time. proj selects the exposed columns (nil for all), pred may
// be nil for an unfiltered scan. fn must not retain the batch or any slice
// obtained from it; returning false stops the scan.
//
// Frozen blocks are pruned by zone map where possible, filtered by typed
// kernels over their Arrow buffers, and exposed zero-copy. Other blocks
// are staged through a columnar scratch in chunks of HotBatchSize.
func (t *DataTable) ScanBatches(tx *txn.Transaction, proj *storage.Projection, pred *Predicate, fn func(b *Batch) bool) error {
	plan, err := t.prepareScan(proj, pred)
	if err != nil || plan.empty {
		return err
	}
	batch := getBatch(plan.proj)
	var scr *scratch
	defer func() {
		if scr != nil {
			t.putScratch(scr)
		}
		putBatch(batch)
	}()
	for _, block := range t.blockList() {
		cont, err := t.batchScanBlock(tx, block, batch, &scr, &plan, fn)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}

// ScanBlockBatches is the morsel-granular entry point of the batch scan:
// it visits the visible, pred-satisfying tuples of exactly one block —
// the unit a parallel executor fans across workers. The block must come
// from a Blocks() snapshot taken under the same transaction's lifetime;
// visiting every block of one snapshot exactly once is equivalent to one
// ScanBatches pass, regardless of which worker runs which block. The
// freeze/thaw protocol is respected per block: a block caught Thawing (or
// any non-frozen state) falls back to the version-chain staging path, so
// concurrent state transitions never tear a batch.
func (t *DataTable) ScanBlockBatches(tx *txn.Transaction, block *storage.Block, proj *storage.Projection, pred *Predicate, fn func(b *Batch) bool) error {
	plan, err := t.prepareScan(proj, pred)
	if err != nil || plan.empty {
		return err
	}
	batch := getBatch(plan.proj)
	var scr *scratch
	_, err = t.batchScanBlock(tx, block, batch, &scr, &plan, fn)
	if scr != nil {
		t.putScratch(scr)
	}
	putBatch(batch)
	return err
}

// frozenBatch handles one block on the frozen path: zone-map prune, then
// fetch the view source — the resident block's memory under its reader
// counter, or an evicted block's cached payload from the cold tier — then
// kernel filter and emit one zero-copy batch. handled is false when the
// block is not frozen (the caller falls back to the hot path); cont is
// false when fn stopped the scan.
func (t *DataTable) frozenBatch(block *storage.Block, batch *Batch, pred *Predicate, fn func(*Batch) bool) (cont, handled bool, err error) {
	// Zone-map pruning happens BEFORE the reader counter is taken: the
	// state must be observed Frozen before the map is loaded (see
	// storage.Block.ZoneMap for why that order is sound). The map stays
	// in RAM across eviction, so a pruned cold block never touches the
	// object store at all.
	if pred != nil && block.State() == storage.StateFrozen {
		if zm := block.ZoneMap(); zm != nil && pred.prunesBlock(zm) {
			t.scanStats.blocksPruned.Add(1)
			if !block.Resident() {
				t.scanStats.blocksPrunedCold.Add(1)
			}
			return true, true, nil
		}
	}
	if !block.BeginInPlaceRead() {
		return true, false, nil
	}
	var src frozenViewSource = block
	var n int
	cold := !block.Resident()
	if cold {
		// The payload is an immutable copy of the frozen epoch just
		// observed; it needs no reader pin.
		block.EndInPlaceRead()
		rb, err := t.fetchCold(block)
		if err != nil {
			return false, true, err
		}
		t.scanStats.blocksCold.Add(1)
		src, n = coldSource{rb}, rb.NumRows
	} else {
		defer block.EndInPlaceRead()
		t.scanStats.blocksFrozen.Add(1)
		n = block.FrozenRows()
	}
	if n == 0 {
		return true, true, nil
	}
	batch.setupFrozen(block, src, cold)
	if pred != nil {
		sv := storage.GetSelectionVector(n)
		defer storage.PutSelectionVector(sv)
		sv.SetIndices(evalFrozenPred(src, pred, n, sv.Indices()[:0]))
		if sv.Len() == 0 {
			return true, true, nil
		}
		batch.sel = sv.Indices()
		batch.n = sv.Len()
	} else {
		batch.sel = nil
		batch.n = n
	}
	t.scanStats.tuplesEmitted.Add(int64(batch.n))
	return fn(batch), true, nil
}

// frozenViewSource is the common shape of resident frozen blocks and
// evicted blocks' record batches (coldSource): both expose typed
// zero-copy column views, so the predicate kernels and the batch views
// run identically over either.
type frozenViewSource interface {
	FrozenFixedView(storage.ColumnID) storage.FixedColView
	FrozenVarlenView(storage.ColumnID) storage.VarlenColView
}

// evalFrozenPred runs the typed kernel for pred over the source's Arrow
// buffers, appending matching slot offsets to out.
func evalFrozenPred(src frozenViewSource, pred *Predicate, n int, out []uint32) []uint32 {
	switch pred.Kind {
	case PredInt:
		view := src.FrozenFixedView(pred.Col)
		return selIntRange(view.Data, view.Valid, view.Width, n, pred.LoInt, pred.HiInt, out)
	case PredFloat:
		view := src.FrozenFixedView(pred.Col)
		return arrow.SelFloat64Range(view.Data, view.Valid, n, pred.LoFloat, pred.HiFloat, pred.LoFloatStrict, pred.HiFloatStrict, out)
	default: // PredBytes
		view := src.FrozenVarlenView(pred.Col)
		if d := view.Dict(); d != nil {
			// Sorted dictionary: the bytes range becomes an int32 code
			// range and values are never touched.
			loC, hiC := d.CodeRange(pred.LoBytes, pred.HiBytes, pred.LoBytesStrict, pred.HiBytesStrict)
			if loC >= hiC {
				return out
			}
			return arrow.SelInt32Range(d.Codes, view.Valid, n, loC, hiC-1, out)
		}
		for i := 0; i < n; i++ {
			if view.IsNull(i) {
				continue
			}
			if pred.matchBytes(view.BytesAt(i)) {
				out = append(out, uint32(i))
			}
		}
		return out
	}
}

// selIntRange dispatches the integer kernel by column width, narrowing the
// int64 bounds to the width (an empty narrowed range selects nothing).
func selIntRange(data []byte, valid util.Bitmap, width, n int, lo, hi int64, out []uint32) []uint32 {
	switch width {
	case 8:
		return arrow.SelInt64Range(data, valid, n, lo, hi, out)
	case 4:
		if lo > math.MaxInt32 || hi < math.MinInt32 {
			return out
		}
		return arrow.SelInt32Range(data, valid, n, int32(max(lo, math.MinInt32)), int32(min(hi, math.MaxInt32)), out)
	case 2:
		if lo > math.MaxInt16 || hi < math.MinInt16 {
			return out
		}
		return arrow.SelInt16Range(data, valid, n, int16(max(lo, math.MinInt16)), int16(min(hi, math.MaxInt16)), out)
	default:
		if lo > math.MaxInt8 || hi < math.MinInt8 {
			return out
		}
		return arrow.SelInt8Range(data, valid, n, int8(max(lo, math.MinInt8)), int8(min(hi, math.MaxInt8)), out)
	}
}

// hotBatches stages block through the columnar scratch in chunks of
// HotBatchSize slots, reading each slot with readVisible straight into the
// scratch's next row. Returns false when fn stopped the scan.
func (t *DataTable) hotBatches(tx *txn.Transaction, block *storage.Block, batch *Batch, scr *scratch, pred *Predicate, predIdx int, fn func(*Batch) bool) bool {
	t.scanStats.blocksVersioned.Add(1)
	limit := block.InsertHead()
	for start := uint32(0); start < limit; start += HotBatchSize {
		end := min(start+HotBatchSize, limit)
		scr.n = 0
		for s := start; s < end; s++ {
			// A slot not visible to tx leaves residue in row n, which the
			// next slot's read overwrites.
			if readVisible(tx, block, s, cellSink{scr: scr, i: scr.n}) {
				scr.slots[scr.n] = s
				scr.n++
			}
		}
		if scr.n == 0 {
			continue
		}
		batch.block = block
		batch.frozen = false
		batch.scr = scr
		if pred != nil {
			sv := storage.GetSelectionVector(scr.n)
			sv.SetIndices(evalScratchPred(scr, pred, predIdx, sv.Indices()[:0]))
			if sv.Len() == 0 {
				storage.PutSelectionVector(sv)
				continue
			}
			batch.sel = sv.Indices()
			batch.n = sv.Len()
			t.scanStats.tuplesEmitted.Add(int64(batch.n))
			cont := fn(batch)
			storage.PutSelectionVector(sv)
			if !cont {
				return false
			}
			continue
		}
		batch.sel = nil
		batch.n = scr.n
		t.scanStats.tuplesEmitted.Add(int64(batch.n))
		if !fn(batch) {
			return false
		}
	}
	return true
}

// evalScratchPred runs pred over the scratch's packed columns — the same
// kernels the frozen path uses, pointed at scratch memory.
func evalScratchPred(scr *scratch, pred *Predicate, predIdx int, out []uint32) []uint32 {
	n := scr.n
	switch pred.Kind {
	case PredInt:
		return selIntRange(scr.fixed[predIdx], scr.valid[predIdx], scr.widths[predIdx], n, pred.LoInt, pred.HiInt, out)
	case PredFloat:
		return arrow.SelFloat64Range(scr.fixed[predIdx], scr.valid[predIdx], n, pred.LoFloat, pred.HiFloat, pred.LoFloatStrict, pred.HiFloatStrict, out)
	default: // PredBytes
		vars := scr.vars[predIdx]
		valid := scr.valid[predIdx]
		for i := 0; i < n; i++ {
			if valid.Test(i) && pred.matchBytes(vars[i]) {
				out = append(out, uint32(i))
			}
		}
		return out
	}
}
