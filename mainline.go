// Package mainline is an in-memory, multi-versioned OLTP storage engine
// that keeps table data in a relaxed form of the Apache Arrow columnar
// format and lazily transforms cold blocks into canonical Arrow, so that
// analytical tools can consume the database with zero serialization cost.
//
// It is a from-scratch Go reproduction of "Mainlining Databases: Supporting
// Fast Transactional Workloads on Universal Columnar Data File Formats"
// (Li et al., VLDB 2020) — the storage architecture of the DB-X / NoisePage
// DBMS. See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced evaluation.
//
// The API is transaction-centric, mirroring the paper's Data Table API:
// every read and write flows through a *Txn handle obtained from Begin (or
// the managed View/Update closures), and the handle owns its lifecycle —
// tx.Commit / tx.Abort return typed errors (ErrTxnFinished,
// ErrWriteConflict, ErrEngineClosed) instead of panicking on misuse.
//
// Quickstart:
//
//	eng, _ := mainline.Open()
//	defer eng.Close()
//	tbl, _ := eng.CreateTable("item", mainline.NewSchema(
//		mainline.Field{Name: "id", Type: mainline.INT64},
//		mainline.Field{Name: "name", Type: mainline.STRING, Nullable: true},
//	))
//	_ = eng.Update(func(tx *mainline.Txn) error {
//		row := tbl.NewRow()
//		row.Set("id", 101)
//		row.Set("name", "JOE")
//		_, err := tbl.Insert(tx, row)
//		return err
//	})
package mainline

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/checkpoint/manifestlog"
	"mainline/internal/core"
	"mainline/internal/exec"
	"mainline/internal/fault"
	"mainline/internal/gc"
	"mainline/internal/index"
	"mainline/internal/objstore"
	"mainline/internal/storage"
	"mainline/internal/tier"
	"mainline/internal/transform"
	"mainline/internal/txn"
	"mainline/internal/wal"
)

// Re-exported types so in-module consumers program against one package.
type (
	// Schema describes a table's columns.
	Schema = arrow.Schema
	// Field is one column of a schema.
	Field = arrow.Field
	// RecordBatch is a set of equal-length Arrow columns.
	RecordBatch = arrow.RecordBatch
	// ArrowTable is an ordered collection of record batches.
	ArrowTable = arrow.Table
	// TupleSlot identifies a stored tuple.
	TupleSlot = storage.TupleSlot
	// Projection selects a subset of columns.
	Projection = storage.Projection
	// ColumnID indexes a column in a table layout.
	ColumnID = storage.ColumnID
	// Index is an ordered secondary index.
	Index = index.Index
	// KeyBuilder builds memcomparable index keys.
	KeyBuilder = index.KeyBuilder
	// TransformStats counts transformation pipeline work.
	TransformStats = transform.Stats
	// ScanStats counts scan-path work (frozen vs versioned blocks, zone-map
	// pruning, tuples emitted).
	ScanStats = core.ScanStats
	// ExecStats counts analytical-executor work (morsels, partial merges,
	// workers, rows aggregated, dictionary fast-path blocks).
	ExecStats = exec.Stats
	// TierStats counts cold-tier activity: evictions, rethaws, block-cache
	// traffic, object-store volume (Enabled false without an object
	// store).
	TierStats = tier.Stats
)

// Re-exported column types.
const (
	INT8    = arrow.INT8
	INT16   = arrow.INT16
	INT32   = arrow.INT32
	INT64   = arrow.INT64
	FLOAT64 = arrow.FLOAT64
	STRING  = arrow.STRING
	BINARY  = arrow.BINARY
)

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema { return arrow.NewSchema(fields...) }

// NewKeyBuilder creates a key builder with a capacity hint.
func NewKeyBuilder(capacity int) *KeyBuilder { return index.NewKeyBuilder(capacity) }

// NewBTreeIndex creates a single-tree ordered index — the standalone
// index library. For indexes the engine maintains transactionally, use
// Table.CreateIndex instead.
func NewBTreeIndex() Index { return index.NewBTree() }

// NewShardedIndex creates a hash-sharded ordered index for keys whose
// first prefixLen bytes partition the workload. prefixLen must be at
// least 1; a non-positive value returns ErrInvalidPrefixLen (earlier
// versions panicked at the first lookup). For engine-maintained indexes
// use Table.CreateShardedIndex instead.
func NewShardedIndex(shards, prefixLen int) (Index, error) {
	s, err := index.NewSharded(shards, prefixLen)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// TransformMode selects the gather target for cold blocks.
type TransformMode = transform.Mode

// Gather targets.
const (
	// TransformGather produces canonical Arrow (contiguous varlen buffers).
	TransformGather = transform.ModeGather
	// TransformDictionary produces dictionary-compressed columns.
	TransformDictionary = transform.ModeDictionary
)

// Engine is the assembled storage engine: block registry, transaction
// manager, garbage collector, transformation pipeline, catalog, and
// (optionally) the write-ahead log.
type Engine struct {
	opts Options

	reg         *storage.Registry
	mgr         *txn.Manager
	collector   *gc.GarbageCollector
	observer    *transform.Observer
	transformer *transform.Transformer
	logMgr      *wal.LogManager
	cat         *catalog.Catalog
	tier        *tier.Manager
	// manifest and objects hold the checkpoints in DataDir mode: the
	// version log and the store its chunk and slot objects live in (the
	// tier's store, or an FSStore under <DataDir>/objects without one).
	manifest *manifestlog.Log
	objects  objstore.Store

	// walRunning records that the log flush loop was started; durable
	// commits block on it. When false, durable commits drive the flush
	// themselves so they can never deadlock.
	walRunning bool

	// closeMu serializes Close against in-flight Commits: Commit holds
	// the read side from its closed-check through completion, so Close
	// cannot stop the flush loop between a durable committer's check and
	// its wait for the durability callback. Checkpoint holds the read
	// side too, for the same reason (it truncates through the log
	// manager).
	closeMu sync.RWMutex
	closed  atomic.Bool

	// fsys is the filesystem seam every persistence path goes through:
	// fault.OS{} in production, a fault.Injector under test/chaos.
	fsys fault.FS

	// degraded seals the engine read-only after a WAL write/fsync failure
	// (see enterDegraded). degradedCause holds the ErrDegraded-wrapped
	// root cause handed to refused operations.
	degraded      atomic.Bool
	degradedCause atomic.Value // error

	// Checkpoint subsystem state (DataDir mode).
	catSaveMu    sync.Mutex // serializes CreateTable + catalog.json install
	ckptMu       sync.Mutex // serializes checkpoints
	ckptStop     chan struct{}
	ckptDone     chan struct{}
	ckptStopOnce sync.Once

	// Cold-tier sweeper state (object-store mode, Background).
	tierStop     chan struct{}
	tierDone     chan struct{}
	tierStopOnce sync.Once

	// Checkpoint counters (Stats).
	ckptTaken         atomic.Int64
	ckptFailed        atomic.Int64
	ckptRows          atomic.Int64
	ckptBytes         atomic.Int64
	ckptSegsTruncated atomic.Int64
	ckptLastSeq       atomic.Uint64
	ckptLastTs        atomic.Uint64
	// ckptLastWall is the wall clock (unix nanos) of the last installed
	// checkpoint — Health()'s checkpoint-age source. 0 = never.
	ckptLastWall atomic.Int64

	// obs bundles the engine's always-on observability instruments
	// (latency histograms, duty meters, slow-op ring); see observe.go.
	obs *engineObs

	// recovery records what Open's bootstrap did; immutable afterwards.
	recovery RecoveryStats

	// execCounters accumulates analytical-executor statistics
	// (Stats().Exec) across every Aggregate/Join on this engine.
	execCounters exec.Counters

	// serverStatsFn, when set via Admin().SetServerStats, snapshots the
	// attached network serving layer's counters for Stats().Server.
	serverStatsFn atomic.Pointer[func() ServerStats]

	// dirLock releases the data directory's exclusive flock (nil without
	// DataDir). Held from bootstrap until Close.
	dirLock func()
}

// Open assembles an engine. With no options it is purely in-memory with
// the background loops off (drive them with RunGC / RunTransform /
// FreezeAll); see the With* options for WAL, background loops, and
// transformation tuning.
func Open(opts ...Option) (*Engine, error) {
	var o Options
	for _, opt := range opts {
		opt.apply(&o)
	}
	o.defaults()
	e := &Engine{opts: o}
	e.reg = storage.NewRegistry()
	e.mgr = txn.NewManager(e.reg)
	e.cat = catalog.New(e.reg)
	e.collector = gc.New(e.mgr)
	e.observer = transform.NewObserver()
	e.collector.SetObserver(e.observer)
	cfg := transform.DefaultConfig() // 50-block compaction groups, the paper's sweet spot
	cfg.Threshold = o.ColdThreshold
	cfg.Mode = o.TransformMode
	e.transformer = transform.New(e.mgr, e.collector, e.observer, cfg)
	// Observability is always on: the instruments must exist before the
	// data-directory bootstrap below (its re-anchor checkpoint records
	// into them) and the cost is a few time.Now() calls per operation.
	e.obs = newEngineObs(o.SlowOpThreshold)
	e.obs.wire(e)
	e.fsys = o.FaultFS
	if e.fsys == nil {
		e.fsys = fault.OS{}
	}

	switch {
	case o.ObjectStoreDir != "" && o.ObjectStore != nil:
		return nil, fmt.Errorf("mainline: WithObjectStore and WithObjectStoreBackend are mutually exclusive")
	case (o.BlockCacheBytes != 0 || o.TierSweepInterval != 0) &&
		o.ObjectStoreDir == "" && o.ObjectStore == nil:
		// A cache budget or sweep cadence with nowhere to evict to would be
		// a silent no-op — same trap as a checkpoint interval without a
		// data directory.
		return nil, fmt.Errorf("mainline: block cache and tier sweep options require an object store")
	case o.CheckpointInterval > 0 && o.DataDir == "":
		// Without a data directory there is nothing to checkpoint; a
		// silently ignored interval would leave the user believing their
		// log is bounded.
		return nil, fmt.Errorf("mainline: WithCheckpointInterval requires WithDataDir")
	case o.WALSegmentSize > 0 && o.DataDir == "":
		// Without a data directory there is no WAL to rotate; ignoring
		// the size silently would be the same trap.
		return nil, fmt.Errorf("mainline: WithWALSegmentSize requires WithDataDir")
	}
	if o.ObjectStoreDir != "" || o.ObjectStore != nil {
		store := o.ObjectStore
		if store == nil {
			fsStore, err := objstore.NewFSStore(o.ObjectStoreDir, e.fsys)
			if err != nil {
				return nil, err
			}
			store = fsStore
		}
		budget := o.BlockCacheBytes
		switch budget {
		case BlockCacheUnlimited:
			budget = -1 // the cache treats negative as unbounded
		case BlockCacheNone:
			budget = 0 // and zero as no retention
		}
		// Buffer drops are deferred through the GC's action epoch so
		// readers that raced an eviction (and fell back to version-chain
		// reads holding slices into the buffer) finish first.
		e.tier = tier.NewManager(store, budget, tierEvictAfterSweeps, e.collector.RegisterAction)
	}
	if o.DataDir != "" {
		// Durable data directory: rehydrate catalog, restore the newest
		// valid checkpoint, replay the WAL tail, open the segmented log.
		if err := e.bootstrapDataDir(); err != nil {
			if e.dirLock != nil {
				e.dirLock()
			}
			return nil, err
		}
	}
	if e.logMgr != nil {
		e.obs.wireWAL(e.logMgr)
		// A WAL flush failure is fail-stop for durability, not for the
		// process: the log manager has already failed every waiter when
		// OnError runs; the engine then seals itself degraded read-only
		// instead of panicking (the library default).
		e.logMgr.OnError = e.enterDegraded
	}
	if o.Background {
		e.collector.Start(gcPeriod)
		e.transformer.Start(transformPeriod)
		if e.logMgr != nil {
			e.logMgr.Start(logFlushInterval)
			e.walRunning = true
		}
		if e.tier != nil {
			e.startTierSweeper(o.TierSweepInterval)
		}
	}
	// The checkpointer is independent of the Background loops: a
	// configured interval must never be a silent no-op, because without
	// checkpoints the WAL grows unboundedly.
	if o.DataDir != "" && o.CheckpointInterval > 0 {
		e.startCheckpointer(o.CheckpointInterval)
	}
	return e, nil
}

// Close stops background work and releases the log. It is idempotent:
// the first call wins, later calls return nil. After Close, Begin / View /
// Update and Commit of in-flight transactions return ErrEngineClosed.
func (e *Engine) Close() error {
	// The background checkpointer must stop before the write lock is
	// requested: its Checkpoint calls hold the read side, and a waiting
	// writer blocks new readers (see stopCheckpointer).
	e.stopCheckpointer()
	// The tier sweeper registers deferred buffer drops with the GC, so it
	// stops before the GC does.
	e.stopTierSweeper()
	// The write lock waits out in-flight Commits (which hold the read
	// side), so no committer can observe the engine open and then find
	// the flush loop stopped underneath its durability wait.
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.opts.Background {
		e.transformer.Stop()
		e.collector.Stop()
	}
	var err error
	if e.logMgr != nil {
		err = e.logMgr.Close()
	}
	if e.dirLock != nil {
		e.dirLock()
		e.dirLock = nil
	}
	return err
}

// Closed reports whether Close has been called.
func (e *Engine) Closed() bool { return e.closed.Load() }

// CreateTable registers a table with the given Arrow schema. In degraded
// mode it refuses with ErrDegraded: the schema could not be durably
// recorded, so recovery would not know the table.
func (e *Engine) CreateTable(name string, schema *Schema) (*Table, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	if e.degraded.Load() {
		return nil, e.degradedErr()
	}
	// In data-directory mode the in-memory registration and the
	// catalog.json install must be one serialized step: concurrent
	// creators otherwise race the snapshot-write-rename sequence and can
	// install a stale catalog missing a table the WAL already references.
	if e.opts.DataDir != "" {
		e.catSaveMu.Lock()
		defer e.catSaveMu.Unlock()
	}
	t, err := e.cat.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	if e.tier != nil {
		t.DataTable.AttachColdTier(e.tier)
	}
	if e.opts.DataDir != "" {
		// Persist the schema before any transaction can log records
		// against the new table: recovery reads catalog.json first, so
		// every table ID the WAL mentions must already be there. On
		// failure the registration is rolled back, so a durable engine
		// can never hold a table the next recovery won't know.
		if err := e.cat.Save(e.fsys, e.catalogPath()); err != nil {
			e.cat.Drop(name)
			return nil, fmt.Errorf("mainline: persisting catalog: %w", err)
		}
	}
	e.observer.Watch(t.DataTable)
	return &Table{Table: t, eng: e}, nil
}

// Table resolves a table by name (nil if absent).
func (e *Engine) Table(name string) *Table {
	t := e.cat.Table(name)
	if t == nil {
		return nil
	}
	return &Table{Table: t, eng: e}
}

// RunGC performs one synchronous garbage collection pass.
func (e *Engine) RunGC() { e.collector.RunOnce() }

// RunTransform performs one synchronous transformation pass and reports
// blocks frozen.
func (e *Engine) RunTransform() int { return e.transformer.RunOnce() }

// FreezeAll drives GC and transformation synchronously until every block of
// every table is frozen (or maxPasses passes elapse). Intended for
// benchmarks and examples that need a fully cold database.
func (e *Engine) FreezeAll(maxPasses int) bool {
	if maxPasses <= 0 {
		maxPasses = 100
	}
	for pass := 0; pass < maxPasses; pass++ {
		e.collector.RunOnce()
		e.transformer.ForcePass()
		if e.allFrozen() {
			return true
		}
	}
	return e.allFrozen()
}

func (e *Engine) allFrozen() bool {
	for _, t := range e.cat.Tables() {
		for _, b := range t.Blocks() {
			if b.InsertHead() > 0 && b.State() != storage.StateFrozen {
				return false
			}
		}
	}
	return true
}

// BlockStates counts blocks of the named table by state:
// [hot, cooling, freezing, frozen] — Figure 10b's metric.
func (e *Engine) BlockStates(table string) (counts [4]int) {
	t := e.cat.Table(table)
	if t == nil {
		return
	}
	for _, b := range t.Blocks() {
		s := b.State()
		if s == storage.StateThawing {
			s = storage.StateHot // transient drain on the way to hot
		}
		counts[s]++
	}
	return
}

// FlushLog forces one synchronous group commit (no-op without a log or
// after Close).
func (e *Engine) FlushLog() {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		return
	}
	if e.logMgr != nil {
		e.logMgr.FlushOnce()
	}
}
