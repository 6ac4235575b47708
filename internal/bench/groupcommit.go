package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mainline/internal/benchutil"
	"mainline/internal/catalog"
	"mainline/internal/gc"
	"mainline/internal/obs"
	"mainline/internal/storage"
	"mainline/internal/txn"
	"mainline/internal/wal"
	"mainline/internal/workload/tpcc"
)

// GroupCommitConfig scales the commit-pipeline experiment.
type GroupCommitConfig struct {
	// Workers are the terminal counts to sweep (default 1,2,4,8).
	Workers []int
	// Duration is the measurement window per point.
	Duration time.Duration
	// TPCC is the per-warehouse database scale.
	TPCC func(warehouses int) tpcc.Config
	// LogDir receives the per-point WAL directories ("" = a temp dir that is
	// removed afterwards).
	LogDir string
	// FlushInterval bounds group-commit latency (default 5ms; the enqueue
	// nudge makes idle-system flushes immediate regardless).
	FlushInterval time.Duration
	// SyncLatency emulates a device with the given fsync cost (0 defaults
	// to 5ms, a commodity disk, unless RawSync is set).
	SyncLatency time.Duration
	// RawSync measures the raw filesystem instead of the emulated device —
	// on hosts where fsync is near-free that yields a pure CPU benchmark
	// in which group commit has nothing to amortize.
	RawSync bool
	// SyncDelay is the group-formation window before each flush (0
	// defaults to 1ms); see wal.LogManager.SyncDelay.
	SyncDelay time.Duration
}

// DefaultGroupCommitConfig returns the laptop-scale sweep.
func DefaultGroupCommitConfig() GroupCommitConfig {
	return GroupCommitConfig{
		Workers:       []int{1, 2, 4, 8},
		Duration:      time.Second,
		TPCC:          tpcc.DefaultConfig,
		FlushInterval: 5 * time.Millisecond,
		SyncLatency:   5 * time.Millisecond,
		SyncDelay:     time.Millisecond,
	}
}

// GroupCommitPoint is one sweep measurement, exposed so tests can assert
// scaling shapes without re-parsing the table.
type GroupCommitPoint struct {
	Workers   int
	Committed int64
	Aborted   int64
	TxnPerSec float64
	TpmC      float64
	Syncs     int64
	// GroupSize is the mean transactions amortized per fsync.
	GroupSize float64
	// P50/P95/P99 are commit-latency percentiles (durable wait included)
	// from the internal/obs histogram the point records into.
	P50, P95, P99 time.Duration
}

// GroupCommit measures the parallel commit pipeline: TPC-C terminals issue
// durable commits (each waits for the WAL fsync covering its commit
// record), so throughput is governed by how many commits a group amortizes
// per fsync. With one terminal every transaction pays a private fsync;
// with N the sharded commit latch and group commit overlap them — the
// sweep's shape is the pipeline's speedup, largely independent of core
// count because the waiting is I/O, not CPU.
func GroupCommit(cfg GroupCommitConfig) (*benchutil.Table, []GroupCommitPoint, error) {
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4, 8}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.TPCC == nil {
		cfg.TPCC = tpcc.DefaultConfig
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 5 * time.Millisecond
	}
	if cfg.SyncLatency <= 0 && !cfg.RawSync {
		cfg.SyncLatency = 5 * time.Millisecond
	}
	if cfg.SyncDelay <= 0 {
		cfg.SyncDelay = time.Millisecond
	}
	logDir := cfg.LogDir
	if logDir == "" {
		dir, err := os.MkdirTemp("", "mainline-groupcommit")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		logDir = dir
	}

	t := &benchutil.Table{
		Title:  "Commit pipeline — durable TPC-C throughput vs terminals",
		Note:   fmt.Sprintf("%v per point, every commit waits for its group fsync", cfg.Duration),
		Header: []string{"workers", "txn/s", "tpmC", "p50", "p95", "p99", "aborted", "fsyncs", "txns/fsync", "speedup"},
	}
	var points []GroupCommitPoint
	var base float64
	for _, workers := range cfg.Workers {
		pt, err := runGroupCommitPoint(cfg, workers, logDir)
		if err != nil {
			return nil, nil, fmt.Errorf("group-commit @%d workers: %w", workers, err)
		}
		points = append(points, *pt)
		if base == 0 {
			base = pt.TxnPerSec
		}
		t.AddRow(
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.0f", pt.TxnPerSec),
			fmt.Sprintf("%.0f", pt.TpmC),
			benchutil.Seconds(pt.P50),
			benchutil.Seconds(pt.P95),
			benchutil.Seconds(pt.P99),
			fmt.Sprintf("%d", pt.Aborted),
			fmt.Sprintf("%d", pt.Syncs),
			fmt.Sprintf("%.1f", pt.GroupSize),
			benchutil.Ratio(pt.TxnPerSec, base),
		)
	}
	return t, points, nil
}

func runGroupCommitPoint(cfg GroupCommitConfig, workers int, logDir string) (*GroupCommitPoint, error) {
	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	cat := catalog.New(reg)
	db, err := tpcc.NewDatabase(mgr, cat, cfg.TPCC(workers))
	if err != nil {
		return nil, err
	}
	p, err := tpcc.Load(db, 42)
	if err != nil {
		return nil, err
	}

	path := filepath.Join(logDir, fmt.Sprintf("wal-%dw", workers))
	latency := cfg.SyncLatency
	if cfg.RawSync {
		latency = 0
	}
	lm, err := wal.OpenPipeline(path, mgr, latency, cfg.SyncDelay, cfg.FlushInterval)
	if err != nil {
		return nil, err
	}
	db.Durable = true
	lat := obs.NewHistogram("commit", "", "seconds", "")
	db.CommitLatency = lat

	g := gc.New(mgr)
	g.Start(10 * time.Millisecond)
	res := tpcc.Run(db, p, workers, cfg.Duration, 99)
	g.Stop()
	db.Durable = false
	if err := lm.Close(); err != nil {
		return nil, err
	}
	os.RemoveAll(path)

	if err := tpcc.CheckConsistency(db); err != nil {
		return nil, err
	}
	txns, _, syncs := lm.Stats()
	snap := lat.Snapshot()
	pt := &GroupCommitPoint{
		Workers:   workers,
		Committed: res.Total(),
		Aborted:   res.Aborted,
		TxnPerSec: res.Throughput(),
		TpmC:      res.TpmC(),
		Syncs:     syncs,
		P50:       snap.QuantileDuration(0.50),
		P95:       snap.QuantileDuration(0.95),
		P99:       snap.QuantileDuration(0.99),
	}
	if syncs > 0 {
		pt.GroupSize = float64(txns) / float64(syncs)
	}
	return pt, nil
}
