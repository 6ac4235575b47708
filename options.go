package mainline

import (
	"time"

	"mainline/internal/fault"
	"mainline/internal/objstore"
	"mainline/internal/transform"
)

// Block-cache budget sentinels for WithBlockCacheBytes. Any positive
// value is a byte budget; zero (the field's zero value) means the 64MB
// default.
const (
	// BlockCacheUnlimited caches every fetched cold block forever.
	BlockCacheUnlimited int64 = -1
	// BlockCacheNone disables retention: every cold read fetches from the
	// object store (concurrent readers of the same block still share one
	// in-flight fetch).
	BlockCacheNone int64 = -2
)

// Option configures an Engine at Open. Options are applied in order; later
// options override earlier ones.
type Option interface {
	apply(*Options)
}

// optionFunc adapts a function to the Option interface.
type optionFunc func(*Options)

func (f optionFunc) apply(o *Options) { f(o) }

// Options is the engine configuration the With* options fill in.
type Options struct {
	// DataDir enables the durable data directory: a segmented WAL
	// (DataDir/wal), checkpoints as content-addressed Arrow chunk and slot
	// objects (DataDir/objects, or the object store when one is
	// configured) committed by version records in DataDir/MANIFEST.log,
	// and a persisted schema catalog (DataDir/catalog.json). Open
	// bootstraps from the newest valid checkpoint and replays only the
	// WAL tail. It is the engine's only durable mode: without it nothing
	// is logged.
	DataDir string
	// CheckpointInterval runs the background checkpointer every interval
	// (requires DataDir; 0 disables — call Engine.Checkpoint manually).
	// The checkpointer runs regardless of Background: a configured
	// interval is never a silent no-op.
	CheckpointInterval time.Duration
	// WALSegmentSize is the rotation threshold for WAL segment files in
	// DataDir mode (default 4MB).
	WALSegmentSize int64
	// LogFlushInterval bounds group-commit latency (default 5ms).
	LogFlushInterval time.Duration
	// Background starts the GC, transformation, and log-flush loops.
	// When false (tests, benchmarks) drive them manually with RunGC /
	// RunTransform.
	Background bool
	// GCPeriod is the garbage collection interval (default 10ms).
	GCPeriod time.Duration
	// TransformPeriod is the transformation pass interval (default 10ms).
	TransformPeriod time.Duration
	// ColdThreshold is how long a block must stay unmodified to freeze
	// (default 10ms, the paper's aggressive setting).
	ColdThreshold time.Duration
	// CompactionGroupSize caps blocks per compaction transaction
	// (default 50, the paper's sweet spot).
	CompactionGroupSize int
	// TransformMode selects gather vs dictionary compression.
	TransformMode TransformMode
	// DisableTransform turns the background transformation off entirely
	// (the paper's "no transformation" baseline).
	DisableTransform bool
	// OnTupleMove observes compaction movements (index maintenance).
	OnTupleMove transform.OnMove
	// SlowOpThreshold is the slow-op capture threshold: operations
	// (commits, server requests) at or above it are recorded into the
	// in-memory trace ring (Engine.SlowOps, /debug/slowops). 0 means the
	// 100ms default; use WithSlowOpThreshold(1) to capture everything.
	SlowOpThreshold time.Duration
	// SlowOpLog, when set, receives each captured slow-op span
	// synchronously — keep it fast; it only runs for slow ops.
	SlowOpLog func(SlowOp)
	// FaultFS routes every persistence-layer filesystem operation (WAL
	// segments, checkpoints, catalog installs) through the given
	// fault.FS. nil means the real filesystem; tests and the chaos
	// harness pass a fault.Injector to produce deterministic fsync
	// failures, torn writes, and ENOSPC schedules.
	FaultFS fault.FS
	// ObjectStoreDir enables the cold tier backed by a local-filesystem
	// object store rooted at the given directory: long-frozen blocks are
	// demoted there and served back through the block cache. Mutually
	// exclusive with ObjectStore.
	ObjectStoreDir string
	// ObjectStore enables the cold tier backed by the given store
	// implementation (tests pass fault-injecting or counting wrappers).
	// Mutually exclusive with ObjectStoreDir.
	ObjectStore objstore.Store
	// BlockCacheBytes is the cold-block cache budget: decoded cold
	// payloads are retained LRU up to this many bytes. 0 means the 64MB
	// default; BlockCacheUnlimited and BlockCacheNone are sentinels.
	// Requires an object store.
	BlockCacheBytes int64
	// TierSweepInterval is the background eviction sweep period (default
	// 100ms; the sweeper only runs with Background). Each sweep ages every
	// frozen resident block and demotes those frozen for
	// TierEvictAfterSweeps consecutive sweeps. Requires an object store.
	TierSweepInterval time.Duration
	// TierEvictAfterSweeps is how many consecutive sweeps a block must
	// stay frozen and untouched before the sweeper evicts it (default 2).
	// Requires an object store.
	TierEvictAfterSweeps int
}

func (o *Options) defaults() {
	if o.LogFlushInterval == 0 {
		o.LogFlushInterval = 5 * time.Millisecond
	}
	if o.GCPeriod == 0 {
		o.GCPeriod = 10 * time.Millisecond
	}
	if o.TransformPeriod == 0 {
		o.TransformPeriod = 10 * time.Millisecond
	}
	if o.ColdThreshold == 0 {
		o.ColdThreshold = 10 * time.Millisecond
	}
	if o.CompactionGroupSize == 0 {
		o.CompactionGroupSize = 50
	}
	if o.SlowOpThreshold == 0 {
		o.SlowOpThreshold = 100 * time.Millisecond
	}
	// Tier defaults are filled only when a store is configured so that a
	// tier knob set WITHOUT a store stays visible to Open's validation.
	if o.ObjectStoreDir != "" || o.ObjectStore != nil {
		if o.BlockCacheBytes == 0 {
			o.BlockCacheBytes = 64 << 20
		}
		if o.TierSweepInterval == 0 {
			o.TierSweepInterval = 100 * time.Millisecond
		}
		if o.TierEvictAfterSweeps == 0 {
			o.TierEvictAfterSweeps = 2
		}
	}
}

// WithDataDir enables the durable data directory rooted at dir: WAL
// segments under dir/wal (rotated at the configured segment size,
// truncated by checkpoints), the schema catalog at dir/catalog.json, and
// checkpoints written once as content-addressed Arrow chunk and slot
// objects committed by version records in dir/MANIFEST.log. The objects
// go to an FSStore under dir/objects, which keeps the newest two
// versions; with WithObjectStore or WithObjectStoreBackend they go to
// that store instead, which keeps every version until
// Admin().PruneSnapshots — reopen such a directory with the same store.
// Open bootstraps from the newest valid checkpoint (falling back one
// version on a size, CRC or schema mismatch), replays only the WAL tail
// beyond its snapshot timestamp, and re-anchors with a fresh checkpoint
// so retained segments always address the live slot space. A data
// directory is the only way to log commits.
func WithDataDir(dir string) Option {
	return optionFunc(func(o *Options) { o.DataDir = dir })
}

// WithCheckpointInterval runs the background checkpointer every interval
// (requires WithDataDir). It runs with or without WithBackground; with 0,
// checkpoints are taken only via Engine.Checkpoint.
func WithCheckpointInterval(d time.Duration) Option {
	return optionFunc(func(o *Options) { o.CheckpointInterval = d })
}

// WithWALSegmentSize sets the WAL segment rotation threshold (default
// 4MB). Requires WithDataDir, which owns the WAL. Smaller segments
// truncate more aggressively; larger ones rotate less often.
func WithWALSegmentSize(n int64) Option {
	return optionFunc(func(o *Options) { o.WALSegmentSize = n })
}

// WithLogFlushInterval bounds group-commit latency when the background
// flush loop runs (default 5ms).
func WithLogFlushInterval(d time.Duration) Option {
	return optionFunc(func(o *Options) { o.LogFlushInterval = d })
}

// WithBackground starts the GC, transformation, and log-flush loops at
// Open. Without it, drive them manually (RunGC / RunTransform / FlushLog /
// FreezeAll) — the mode tests and benchmarks want.
func WithBackground() Option {
	return optionFunc(func(o *Options) { o.Background = true })
}

// WithGCPeriod sets the background garbage collection interval.
func WithGCPeriod(d time.Duration) Option {
	return optionFunc(func(o *Options) { o.GCPeriod = d })
}

// WithTransformPeriod sets the background transformation pass interval.
func WithTransformPeriod(d time.Duration) Option {
	return optionFunc(func(o *Options) { o.TransformPeriod = d })
}

// WithColdThreshold sets how long a block must stay unmodified before the
// transformer freezes it.
func WithColdThreshold(d time.Duration) Option {
	return optionFunc(func(o *Options) { o.ColdThreshold = d })
}

// WithCompactionGroupSize caps blocks per compaction transaction.
func WithCompactionGroupSize(n int) Option {
	return optionFunc(func(o *Options) { o.CompactionGroupSize = n })
}

// WithTransformMode selects gather vs dictionary compression for frozen
// blocks.
func WithTransformMode(m TransformMode) Option {
	return optionFunc(func(o *Options) { o.TransformMode = m })
}

// WithoutTransform turns the background transformation off entirely (the
// paper's "no transformation" baseline); GC still runs.
func WithoutTransform() Option {
	return optionFunc(func(o *Options) { o.DisableTransform = true })
}

// WithOnTupleMove observes compaction movements (index maintenance).
func WithOnTupleMove(fn transform.OnMove) Option {
	return optionFunc(func(o *Options) { o.OnTupleMove = fn })
}

// WithSlowOpThreshold sets the slow-op capture threshold (default
// 100ms): commits and server requests at or above it are recorded as
// structured spans in the in-memory trace ring, readable via
// Engine.SlowOps and the /debug/slowops sidecar endpoint. Use 1 (one
// nanosecond) to capture everything — useful in tests and smoke drives.
func WithSlowOpThreshold(d time.Duration) Option {
	return optionFunc(func(o *Options) { o.SlowOpThreshold = d })
}

// WithSlowOpLog installs a logger that receives each captured slow-op
// span synchronously (it only runs for ops over the threshold, never on
// the fast path).
func WithSlowOpLog(fn func(SlowOp)) Option {
	return optionFunc(func(o *Options) { o.SlowOpLog = fn })
}

// WithObjectStore enables the cold storage tier backed by a local
// filesystem object store rooted at dir: the background sweeper (or
// Admin().EvictAll) demotes long-frozen blocks there, scans and point
// reads over evicted blocks fall through to the store via the block
// cache, and writes re-thaw blocks on demand. All store writes go
// through the engine's fault.FS seam (WithFaultFS), so the chaos
// harness can inject ENOSPC and torn uploads. Mutually exclusive with
// WithObjectStoreBackend.
func WithObjectStore(dir string) Option {
	return optionFunc(func(o *Options) { o.ObjectStoreDir = dir })
}

// WithObjectStoreBackend enables the cold storage tier over the given
// store implementation — the seam tests use to count, fault, or stall
// object reads (see objstore.FaultStore / objstore.CountingStore).
// Mutually exclusive with WithObjectStore.
func WithObjectStoreBackend(store objstore.Store) Option {
	return optionFunc(func(o *Options) { o.ObjectStore = store })
}

// WithBlockCacheBytes sets the cold-block cache budget: evicted blocks'
// decoded record batches are retained LRU up to n bytes of their objects
// (0 = 64MB default;
// BlockCacheUnlimited / BlockCacheNone are sentinels). Requires an
// object store option.
func WithBlockCacheBytes(n int64) Option {
	return optionFunc(func(o *Options) { o.BlockCacheBytes = n })
}

// WithTierSweepInterval sets the background eviction sweep period
// (default 100ms; runs only with WithBackground — tests drive sweeps
// with Admin().TierSweep). Requires an object store option.
func WithTierSweepInterval(d time.Duration) Option {
	return optionFunc(func(o *Options) { o.TierSweepInterval = d })
}

// WithTierEvictAfterSweeps sets how many consecutive sweeps a block
// must stay frozen and untouched before eviction (default 2). Requires
// an object store option.
func WithTierEvictAfterSweeps(n int) Option {
	return optionFunc(func(o *Options) { o.TierEvictAfterSweeps = n })
}

// WithFaultFS routes every persistence-layer filesystem operation through
// fsys — the fault-injection seam. Production never needs this (nil means
// the real filesystem); tests and the chaos harness pass a
// fault.Injector carrying a seeded schedule of fsync failures, torn
// writes, ENOSPC, and latency stalls.
func WithFaultFS(fsys fault.FS) Option {
	return optionFunc(func(o *Options) { o.FaultFS = fsys })
}
