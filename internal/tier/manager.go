// Package tier is the cold-storage tier: a temperature-driven evictor
// that demotes long-frozen blocks to an object store (internal/objstore)
// and drops their in-RAM buffers, and an LRU byte-budgeted cache of
// decoded record batches with single-flight fetch that the scan paths
// fall through to when they hit an evicted block.
//
// An evicted block is stored as its Arrow IPC stream: the zero-copy
// export batch of the block (catalog.Table.FrozenBatch), written by
// internal/arrow's writer as a schema plus one record batch — the format
// of a checkpoint chunk — under blk/<sha256>. The block's ColdRef records
// the object's size and CRC-32C; a fetch checks both before it decodes
// the stream in place, so the cached batch aliases the fetched bytes.
//
// The package imports only storage, arrow and objstore — core defines
// its own ColdTier interface that *Manager satisfies implicitly, so there
// is no tier<->core cycle, and the engine hands each table's batch
// producer to the sweep.
package tier

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"

	"mainline/internal/arrow"
	"mainline/internal/objstore"
	"mainline/internal/storage"
)

// Manager owns the cold tier: it evicts long-frozen blocks to the
// object store, serves cold reads through the cache, and re-installs
// buffers when a writer needs to thaw an evicted block. One Manager per
// engine, shared by every table.
type Manager struct {
	store objstore.Store
	cache *Cache
	// deferFn schedules a function to run once every transaction alive
	// now has finished — the engine wires the GC's deferred-action
	// epoch here so dropped buffers outlive straggler readers.
	deferFn func(func())
	// evictAfter is how many sweeps a block must stay Frozen+Resident
	// before the sweeper demotes it.
	evictAfter uint32

	evictions     atomic.Int64
	rethaws       atomic.Int64
	fetches       atomic.Int64
	bytesUploaded atomic.Int64
	bytesFetched  atomic.Int64
}

// NewManager builds a cold-tier manager over store with the given cache
// byte budget. deferFn defers buffer release past concurrent readers
// (pass a direct call for tests that guarantee quiescence); evictAfter
// is the sweep-age threshold for background demotion.
func NewManager(store objstore.Store, cacheBudget int64, evictAfter int, deferFn func(func())) *Manager {
	if deferFn == nil {
		deferFn = func(fn func()) { fn() }
	}
	if evictAfter < 1 {
		evictAfter = 1
	}
	return &Manager{
		store:      store,
		cache:      NewCache(cacheBudget),
		deferFn:    deferFn,
		evictAfter: uint32(evictAfter),
	}
}

// Store returns the underlying object store.
func (m *Manager) Store() objstore.Store { return m.store }

// Cache returns the block cache (stats and tests).
func (m *Manager) Cache() *Cache { return m.cache }

// Stats counts cold-tier activity (Enabled false without an object
// store). The cold-scan counters (blocks served from the store, cold
// blocks pruned by zone maps without a fetch) live in the scan stats.
type Stats struct {
	// Enabled reports whether the engine was opened with an object store.
	Enabled bool
	// Evictions counts blocks demoted to the store; Rethaws counts
	// evicted blocks whose buffers were re-installed for a write.
	Evictions int64 `metric:"mainline_engine_tier_evictions_total"`
	Rethaws   int64 `metric:"mainline_engine_tier_rethaws_total"`
	// Fetches counts object-store reads of evicted blocks (cache misses
	// that reached the store); CacheHits / CacheMisses / CacheEvictions
	// count block-cache traffic, and CacheBytes is its current footprint.
	Fetches        int64 `metric:"mainline_engine_tier_fetches_total"`
	CacheHits      int64 `metric:"mainline_engine_tier_cache_hits_total"`
	CacheMisses    int64 `metric:"mainline_engine_tier_cache_misses_total"`
	CacheEvictions int64 `metric:"mainline_engine_tier_cache_evictions_total"`
	CacheBytes     int64 `metric:"mainline_engine_tier_cache_bytes"`
	// BytesUploaded / BytesFetched total the object-store volume in each
	// direction.
	BytesUploaded int64 `metric:"mainline_engine_tier_bytes_uploaded_total"`
	BytesFetched  int64 `metric:"mainline_engine_tier_bytes_fetched_total"`
}

// Stats snapshots the manager's lifetime counters; a nil manager (no
// object store) reports zeroes with Enabled false.
func (m *Manager) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{
		Enabled:        true,
		Evictions:      m.evictions.Load(),
		Rethaws:        m.rethaws.Load(),
		Fetches:        m.fetches.Load(),
		CacheHits:      m.cache.Hits(),
		CacheMisses:    m.cache.Misses(),
		CacheEvictions: m.cache.Evictions(),
		CacheBytes:     m.cache.Bytes(),
		BytesUploaded:  m.bytesUploaded.Load(),
		BytesFetched:   m.bytesFetched.Load(),
	}
}

// Producer wraps a frozen, resident block's buffers as its table's Arrow
// record batch without copying (catalog.Table.FrozenBatch).
type Producer func(*storage.Block) (*arrow.RecordBatch, error)

// EvictBlock demotes one frozen, resident block to the object store and
// schedules its in-RAM buffers for release. produce is the block's table
// batch producer. Reports whether the block was evicted; a block that is
// not Frozen+Resident, still carries version chains, or loses the
// Freezing race is skipped without error.
//
// Protocol: CAS Frozen->Freezing claims the same exclusive section the
// gather phase uses (writers wait in MarkHot, new in-place readers
// bounce), readers are drained, the block's batch is written as an Arrow
// IPC stream and uploaded under its content hash, then — in this order —
// the cold ref is recorded, residency flips to Evicted, and the state is
// restored to Frozen. Readers check residency only after BeginInPlaceRead
// succeeds, so by the time any reader can observe Frozen again the
// Evicted flag is already visible. Buffers are dropped via deferFn
// because hot-path readers that bounced off Freezing fall back to
// version-chain reads that may still hold slices into the buffer.
func (m *Manager) EvictBlock(b *storage.Block, produce Producer) (bool, error) {
	if b.State() != storage.StateFrozen || !b.Resident() {
		return false, nil
	}
	if !b.CASState(storage.StateFrozen, storage.StateFreezing) {
		return false, nil
	}
	restore := func() { b.SetState(storage.StateFrozen) }
	if !b.Resident() || b.HasActiveVersions() {
		restore()
		return false, nil
	}
	for b.InPlaceReaders() > 0 {
		runtime.Gosched()
	}
	rb, err := produce(b)
	var data []byte
	if err == nil {
		data, err = arrow.EncodeBatch(rb)
	}
	if err != nil {
		restore()
		return false, fmt.Errorf("tier: encoding block %d: %w", b.ID, err)
	}
	ref, _, err := objstore.PutContent(m.store, "blk/", data)
	if err != nil {
		restore()
		return false, fmt.Errorf("tier: %w", err)
	}
	m.bytesUploaded.Add(int64(len(data)))
	b.SetColdRef(&storage.ColdRef{Key: ref.Key, Size: ref.Size, CRC: ref.CRC})
	b.SetResidency(storage.ResidencyEvicted)
	restore()
	m.evictions.Add(1)
	// The drop claims the Rethawing residency slot as a mutex: it cannot
	// interleave with a writer's re-thaw install, and if a re-thaw already
	// won (residency no longer Evicted by the time the GC epoch fires —
	// the block may even be hot again), the drop becomes a no-op and the
	// superseded buffers are left to the runtime GC.
	m.deferFn(func() {
		if b.CASResidency(storage.ResidencyEvicted, storage.ResidencyRethawing) {
			b.DropColdBuffers()
			b.SetResidency(storage.ResidencyEvicted)
		}
	})
	return true, nil
}

// SweepBlocks ages every frozen resident block of one table and evicts
// those whose sweep age crosses the threshold; produce is the table's
// batch producer. force evicts regardless of age. Returns how many blocks
// were evicted; the first eviction error aborts the sweep (the store is
// likely unreachable — retry next sweep).
func (m *Manager) SweepBlocks(blocks []*storage.Block, produce Producer, force bool) (int, error) {
	evicted := 0
	for _, b := range blocks {
		if b.State() != storage.StateFrozen || !b.Resident() {
			continue
		}
		if !force && b.BumpSweepAge() < m.evictAfter {
			continue
		}
		ok, err := m.EvictBlock(b, produce)
		if err != nil {
			return evicted, err
		}
		if ok {
			evicted++
		}
	}
	return evicted, nil
}

// Fetch returns the decoded record batch of an evicted block, through
// the cache. The object's size and CRC-32C are checked before it is
// decoded, and the batch's shape against the block's layout before it is
// returned; either failure is an error wrapping objstore.ErrCorrupt, and
// nothing is cached. The content-addressed key makes cached entries
// immune to staleness: a block that re-freezes with different content
// gets a new key at its next eviction.
func (m *Manager) Fetch(b *storage.Block) (*arrow.RecordBatch, error) {
	ref := b.ColdKey()
	if ref == nil {
		return nil, fmt.Errorf("tier: block %d has no cold ref", b.ID)
	}
	return m.cache.GetOrFetch(ref.Key, func() (*arrow.RecordBatch, int64, error) {
		data, err := objstore.GetVerified(m.store, objstore.Ref{Key: ref.Key, Size: ref.Size, CRC: ref.CRC})
		if err != nil {
			return nil, 0, fmt.Errorf("tier: %w", err)
		}
		m.fetches.Add(1)
		m.bytesFetched.Add(int64(len(data)))
		rb, err := arrow.DecodeBatch(data)
		if err == nil {
			err = checkLayout(rb, b)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("tier: %w: %s: %w", objstore.ErrCorrupt, ref.Key, err)
		}
		// Decoding aliases data, so its length is the batch's footprint.
		return rb, int64(len(data)), nil
	})
}

// checkLayout verifies that a decoded batch fits the block it stands
// for — the frozen row count, the column count, and each column's kind
// and fixed width — so the read paths and Rethaw can index it through
// the block's layout.
func checkLayout(rb *arrow.RecordBatch, b *storage.Block) error {
	layout := b.Layout
	if rb.NumRows != b.FrozenRows() || len(rb.Columns) != layout.NumColumns() {
		return fmt.Errorf("%d rows of %d columns for a block of %d rows of %d columns",
			rb.NumRows, len(rb.Columns), b.FrozenRows(), layout.NumColumns())
	}
	for c, a := range rb.Columns {
		col := storage.ColumnID(c)
		if layout.IsVarlen(col) {
			if !a.Type.VarLen() && a.Type != arrow.DICT32 {
				return fmt.Errorf("column %d is %s, the block's is variable-length", c, a.Type)
			}
		} else if a.Type.ByteWidth() != layout.AttrSize(col) {
			return fmt.Errorf("column %d is %s, the block's is %d bytes wide", c, a.Type, layout.AttrSize(col))
		}
	}
	return nil
}

// Rethaw re-installs an evicted block's buffers from the store so a
// writer can thaw it. The caller must hold the Rethawing residency state
// (won by CAS from Evicted) and flips it to Resident on success or back
// to Evicted on error; Rethaw itself only rebuilds RAM state, and only
// after Fetch has checked the batch against the block's layout. The block
// stays Frozen throughout — concurrent readers keep taking the cold path
// until residency flips.
func (m *Manager) Rethaw(b *storage.Block) error {
	rb, err := m.Fetch(b)
	if err != nil {
		return err
	}
	rows := rb.NumRows
	layout := b.Layout
	b.AttachBuffer(make([]byte, storage.BlockSize))
	for c, a := range rb.Columns {
		col := storage.ColumnID(c)
		switch {
		case !layout.IsVarlen(col):
			b.RestoreFixedData(col, a.Values[:rows*layout.AttrSize(col)])
		case a.Dict != nil:
			d := &storage.FrozenDict{Codes: a.Values, DictOffsets: a.Dict.Offsets, DictValues: a.Dict.Values, NumEntries: a.Dict.Length}
			b.SetFrozenDict(col, d)
			b.SetFrozenVarlenAlias(col, &storage.FrozenVarlen{Values: d.DictValues})
			for s := 0; s < rows; s++ {
				if !b.IsValid(col, uint32(s)) {
					continue
				}
				code := int(d.CodeAt(s))
				off := binary.LittleEndian.Uint32(d.DictOffsets[code*4:])
				b.RewriteVarlenEntry(col, uint32(s), d.Value(code), int(off))
			}
		default:
			fv := &storage.FrozenVarlen{Offsets: a.Offsets, Values: a.Values}
			b.SetFrozenVarlenAlias(col, fv)
			b.SetFrozenDict(col, nil)
			for s := 0; s < rows; s++ {
				if !b.IsValid(col, uint32(s)) {
					continue
				}
				off := binary.LittleEndian.Uint32(fv.Offsets[s*4:])
				end := binary.LittleEndian.Uint32(fv.Offsets[(s+1)*4:])
				b.RewriteVarlenEntry(col, uint32(s), fv.Values[off:end:end], int(off))
			}
		}
		// The serialized validity region is rebuilt from the atomic
		// bitmaps, which stay in RAM across eviction and cannot have
		// changed while the block was frozen.
		b.WriteFrozenValidity(col, rows)
	}
	m.rethaws.Add(1)
	return nil
}
