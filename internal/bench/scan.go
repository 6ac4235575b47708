package bench

// The scan sweep (not a paper figure): rows/sec and allocs/op for the
// tuple-at-a-time path vs the vectorized batch path across block states —
// hot (version-chain protocol), frozen (in-place Arrow reads), and
// zone-map-pruned range reads. It quantifies ISSUE 4's acceptance targets:
// frozen batch scans beating tuple scans by >=5x rows/sec with an
// order-of-magnitude fewer allocations than the pre-arena Scan.

import (
	"fmt"
	"runtime"
	"time"

	"mainline/internal/arrow"
	"mainline/internal/benchutil"
	"mainline/internal/catalog"
	"mainline/internal/core"
	"mainline/internal/gc"
	"mainline/internal/obs"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
)

// ScanConfig sizes the scan sweep.
type ScanConfig struct {
	// Blocks is the number of sealed blocks in the table.
	Blocks int
	// PerBlock is the tuple count per block.
	PerBlock int
	// Iters is the measured scan repetitions per scenario.
	Iters int
}

// DefaultScanConfig mirrors the acceptance setup: a 4-block frozen
// int64+varlen table.
func DefaultScanConfig() ScanConfig {
	return ScanConfig{Blocks: 4, PerBlock: 5000, Iters: 30}
}

type scanEnv struct {
	mgr   *txn.Manager
	table *catalog.Table
}

func buildScanTable(cfg ScanConfig) (*scanEnv, error) {
	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	cat := catalog.New(reg)
	table, err := cat.CreateTable("scan", arrow.NewSchema(
		arrow.Field{Name: "id", Type: arrow.INT64},
		arrow.Field{Name: "payload", Type: arrow.STRING},
	))
	if err != nil {
		return nil, err
	}
	row := table.AllColumnsProjection().NewRow()
	id := int64(0)
	for b := 0; b < cfg.Blocks; b++ {
		tx := mgr.Begin()
		var blk *storage.Block
		for i := 0; i < cfg.PerBlock; i++ {
			row.Reset()
			row.SetInt64(0, id)
			row.SetVarlen(1, []byte(fmt.Sprintf("payload-%08d-some-tail", id)))
			slot, err := table.Insert(tx, row)
			if err != nil {
				mgr.Abort(tx)
				return nil, err
			}
			if blk == nil {
				blk = reg.BlockFor(slot)
			}
			id++
		}
		mgr.Commit(tx, nil)
		blk.SetInsertHead(table.Layout().NumSlots)
	}
	return &scanEnv{mgr: mgr, table: table}, nil
}

// freeze prunes chains and gathers every block (no compaction, so blocks
// keep their disjoint id ranges for the pruning scenario).
func (e *scanEnv) freeze() error {
	g := gc.New(e.mgr)
	for i := 0; i < 3; i++ {
		g.RunOnce()
	}
	for _, b := range e.table.Blocks() {
		if b.HasActiveVersions() {
			return fmt.Errorf("bench: chains not pruned")
		}
		b.SetState(storage.StateFreezing)
		if err := transform.GatherBlock(b, transform.ModeGather, nil); err != nil {
			return err
		}
	}
	return nil
}

// measure runs fn iters times and reports rows/sec, allocs per run, and
// the per-iteration latency distribution (an internal/obs histogram
// snapshot, so the table can print p50/p99 alongside the mean rate).
func measure(iters int, rowsPer int64, fn func(tx *txn.Transaction) error, mgr *txn.Manager) (rate float64, allocs float64, lat obs.HistSnapshot, err error) {
	// Warm pools and caches once outside the measurement.
	tx := mgr.Begin()
	if err := fn(tx); err != nil {
		mgr.Commit(tx, nil)
		return 0, 0, lat, err
	}
	mgr.Commit(tx, nil)

	h := obs.NewHistogram("scan_iter", "", "seconds", "")
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		tx := mgr.Begin()
		if err := fn(tx); err != nil {
			mgr.Commit(tx, nil)
			return 0, 0, lat, err
		}
		mgr.Commit(tx, nil)
		h.RecordSince(t0)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	rate = float64(rowsPer*int64(iters)) / elapsed.Seconds()
	allocs = float64(after.Mallocs-before.Mallocs) / float64(iters)
	return rate, allocs, h.Snapshot(), nil
}

// Scan runs the sweep and returns the comparison table.
func Scan(cfg ScanConfig) (*benchutil.Table, error) {
	env, err := buildScanTable(cfg)
	if err != nil {
		return nil, err
	}
	table := env.table
	mgr := env.mgr
	totalRows := int64(cfg.Blocks * cfg.PerBlock)
	proj := table.AllColumnsProjection()

	var sink int64
	tupleScan := func(tx *txn.Transaction) error {
		var sum int64
		err := table.Scan(tx, proj, func(_ storage.TupleSlot, row *storage.ProjectedRow) bool {
			sum += row.Int64(0)
			return true
		})
		sink += sum
		return err
	}
	batchScan := func(tx *txn.Transaction) error {
		var sum int64
		err := table.ScanBatches(tx, proj, nil, func(b *core.Batch) bool {
			for i := 0; i < b.Len(); i++ {
				sum += b.Int64(0, i)
			}
			return true
		})
		sink += sum
		return err
	}
	// Range predicate covering the last block's unique suffix: with the
	// overlap-free fixture here (sequential ids), it selects exactly one
	// block after freezing; while hot it still filters correctly.
	lo := totalRows - int64(cfg.PerBlock)
	pred := core.NewIntPred(0, lo, totalRows-1)
	filtered := func(tx *txn.Transaction) error {
		n := 0
		err := table.ScanBatches(tx, proj, pred, func(b *core.Batch) bool {
			n += b.Len()
			return true
		})
		sink += int64(n)
		return err
	}

	t := &benchutil.Table{
		Title:  "Scan sweep — tuple-at-a-time vs vectorized batches (rows/s, allocs/op)",
		Note:   fmt.Sprintf("%d blocks x %d tuples, int64+varlen; pruned = zone-map range read", cfg.Blocks, cfg.PerBlock),
		Header: []string{"state", "path", "rows/s", "p50", "p99", "allocs/op", "speedup"},
	}

	type scenario struct {
		state, path string
		fn          func(*txn.Transaction) error
	}
	rates := map[string]float64{}
	run := func(sc []scenario) error {
		var base float64
		for i, s := range sc {
			rate, allocs, lat, err := measure(cfg.Iters, totalRows, s.fn, mgr)
			if err != nil {
				return err
			}
			rates[s.state+"/"+s.path] = rate
			speedup := "1.00x"
			if i == 0 {
				base = rate
			} else {
				speedup = fmt.Sprintf("%.2fx", rate/base)
			}
			t.AddRow(s.state, s.path, benchutil.OpsPerSec(int64(rate), time.Second),
				benchutil.Seconds(lat.QuantileDuration(0.50)),
				benchutil.Seconds(lat.QuantileDuration(0.99)),
				fmt.Sprintf("%.0f", allocs), speedup)
		}
		return nil
	}

	if err := run([]scenario{
		{"hot", "tuple", tupleScan},
		{"hot", "vectorized", batchScan},
		{"hot", "filtered", filtered},
	}); err != nil {
		return nil, err
	}
	if err := env.freeze(); err != nil {
		return nil, err
	}
	if err := run([]scenario{
		{"frozen", "tuple", tupleScan},
		{"frozen", "vectorized", batchScan},
		{"frozen", "pruned", filtered},
	}); err != nil {
		return nil, err
	}

	_ = sink
	// Sanity: the pruning scenario must actually have pruned blocks.
	st := table.ScanStatsSnapshot()
	if st.BlocksPruned == 0 {
		return nil, fmt.Errorf("bench: pruning scenario pruned no blocks")
	}
	// Regression floor (ISSUE 4 acceptance): frozen batch scans must beat
	// tuple scans by >= 5x rows/sec, so the sweep fails on a perf
	// regression, not only on an error.
	if ratio := rates["frozen/vectorized"] / rates["frozen/tuple"]; ratio < 5 {
		return nil, fmt.Errorf("bench: frozen vectorized scan only %.2fx the tuple scan (acceptance: >=5x)", ratio)
	}
	return t, nil
}
