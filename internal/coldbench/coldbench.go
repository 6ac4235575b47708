// Package coldbench is the cold-tier scan sweep behind `mainline-bench
// cold`: batch-scan throughput over a fully evicted table across block
// cache budgets, against the resident baseline, plus the pruned-vs-
// fetched byte accounting for a zone-map-selective predicate. Like
// internal/recoverybench it imports the root package, so it lives
// outside internal/bench (which the root test binary links).
package coldbench

import (
	"fmt"
	"os"
	"time"

	"mainline"
	"mainline/internal/benchutil"
	"mainline/internal/objstore"
	"mainline/internal/storage"
	"mainline/internal/transform"
)

// Config sizes the cold-scan sweep.
type Config struct {
	// Blocks and PerBlock size the table (sealed blocks × rows).
	Blocks   int
	PerBlock int
	// Iters is the measured scan repetitions per point.
	Iters int
	// Budgets are the block cache budgets to sweep
	// (mainline.BlockCacheNone / byte counts / mainline.BlockCacheUnlimited).
	Budgets []int64
	// Dir receives the per-point object stores ("" = temp, removed).
	Dir string
}

// DefaultConfig is the laptop-scale sweep: no cache, a cache that holds
// roughly half the table, and an unlimited cache.
func DefaultConfig() Config {
	return Config{
		Blocks:   6,
		PerBlock: 4000,
		Iters:    8,
		Budgets:  []int64{mainline.BlockCacheNone, 4 << 20, mainline.BlockCacheUnlimited},
	}
}

// Point is one budget's measurement.
type Point struct {
	Budget int64
	// Rates in rows/sec: the resident (never evicted) baseline, the
	// first cold scan after eviction (cache empty), and the steady-state
	// cache-warm scan.
	ResidentRate float64
	ColdRate     float64
	WarmRate     float64
	// WarmFetches counts object-store reads during the warm iterations —
	// zero for a budget that holds the working set.
	WarmFetches int64
	// PrunedBlocks and PrunedFetches describe the selective predicate:
	// cold blocks skipped by zone maps, and store reads it still cost.
	PrunedBlocks  int64
	PrunedFetches int64
}

func budgetLabel(b int64) string {
	switch b {
	case mainline.BlockCacheNone:
		return "none"
	case mainline.BlockCacheUnlimited:
		return "unlimited"
	default:
		return fmt.Sprintf("%dMB", b>>20)
	}
}

// ColdScan runs the sweep and returns the comparison table alongside the
// raw points (the CI acceptance gate asserts on them directly).
func ColdScan(cfg Config) (*benchutil.Table, []Point, error) {
	if cfg.Blocks <= 0 || cfg.PerBlock <= 0 {
		d := DefaultConfig()
		cfg.Blocks, cfg.PerBlock = d.Blocks, d.PerBlock
	}
	if cfg.Iters <= 0 {
		cfg.Iters = DefaultConfig().Iters
	}
	if len(cfg.Budgets) == 0 {
		cfg.Budgets = DefaultConfig().Budgets
	}
	root := cfg.Dir
	if root == "" {
		dir, err := os.MkdirTemp("", "mainline-coldbench")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		root = dir
	}

	t := &benchutil.Table{
		Title: "Cold-tier scan throughput vs block cache budget",
		Note: fmt.Sprintf("%d blocks × %d rows, batch scans; warm = steady-state after the cold pass refilled the cache",
			cfg.Blocks, cfg.PerBlock),
		Header: []string{"cache", "resident Mrows/s", "cold Mrows/s", "warm Mrows/s", "warm/resident", "warm fetches", "pruned blocks", "pruned fetches"},
	}
	var points []Point
	for i, budget := range cfg.Budgets {
		pt, err := coldPoint(fmt.Sprintf("%s/pt-%d", root, i), budget, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("coldbench: budget %s: %w", budgetLabel(budget), err)
		}
		points = append(points, pt)
		t.AddRow(
			budgetLabel(budget),
			fmt.Sprintf("%.1f", pt.ResidentRate/1e6),
			fmt.Sprintf("%.1f", pt.ColdRate/1e6),
			fmt.Sprintf("%.1f", pt.WarmRate/1e6),
			benchutil.Ratio(pt.WarmRate, pt.ResidentRate),
			fmt.Sprintf("%d", pt.WarmFetches),
			fmt.Sprintf("%d", pt.PrunedBlocks),
			fmt.Sprintf("%d", pt.PrunedFetches),
		)
	}
	return t, points, nil
}

func coldPoint(dir string, budget int64, cfg Config) (Point, error) {
	pt := Point{Budget: budget}
	fs, err := objstore.NewFSStore(dir, nil)
	if err != nil {
		return pt, err
	}
	cs := objstore.NewCountingStore(fs)
	eng, err := mainline.Open(
		mainline.WithObjectStoreBackend(cs),
		mainline.WithBlockCacheBytes(budget),
		mainline.WithTierSweepInterval(time.Hour),
	)
	if err != nil {
		return pt, err
	}
	defer eng.Close()
	tbl, err := eng.CreateTable("cold", mainline.NewSchema(
		mainline.Field{Name: "id", Type: mainline.INT64},
		mainline.Field{Name: "payload", Type: mainline.STRING},
		mainline.Field{Name: "amount", Type: mainline.INT64},
	))
	if err != nil {
		return pt, err
	}
	// Sealed blocks with disjoint, 1e6-spaced id ranges so the selective
	// predicate below prunes all but one block by zone map alone.
	total := int64(0)
	for b := 0; b < cfg.Blocks; b++ {
		if err := eng.Update(func(tx *mainline.Txn) error {
			row := tbl.NewRow()
			for i := 0; i < cfg.PerBlock; i++ {
				id := int64(b)*1_000_000 + int64(i)
				row.Reset()
				row.Set("id", id)
				row.Set("payload", fmt.Sprintf("payload-%010d-some-tail", id))
				row.Set("amount", id%997)
				if _, err := tbl.Insert(tx, row); err != nil {
					return err
				}
				total++
			}
			return nil
		}); err != nil {
			return pt, err
		}
		blks := tbl.Blocks()
		blks[len(blks)-1].SetInsertHead(blks[len(blks)-1].Layout.NumSlots)
	}
	// Freeze without compaction so blocks keep their disjoint id ranges —
	// compaction would merge them and defeat the zone-pruning scenario.
	for i := 0; i < 3; i++ {
		eng.RunGC()
	}
	for _, blk := range tbl.Blocks() {
		if blk.HasActiveVersions() {
			return pt, fmt.Errorf("version chains not pruned; cannot freeze")
		}
		blk.SetState(storage.StateFreezing)
		if err := transform.GatherBlock(blk, transform.ModeGather, nil); err != nil {
			return pt, err
		}
	}

	scanOnce := func() error {
		return eng.View(func(tx *mainline.Txn) error {
			seen := int64(0)
			if err := tbl.ScanBatches(tx, nil, nil, func(b *mainline.Batch) bool {
				seen += int64(b.Len())
				return true
			}); err != nil {
				return err
			}
			if seen != total {
				return fmt.Errorf("scan saw %d rows, want %d", seen, total)
			}
			return nil
		})
	}
	rate := func(iters int) (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := scanOnce(); err != nil {
				return 0, err
			}
		}
		return float64(total) * float64(iters) / time.Since(start).Seconds(), nil
	}

	// Resident baseline: frozen, never evicted.
	if pt.ResidentRate, err = rate(cfg.Iters); err != nil {
		return pt, err
	}

	if _, err := eng.Admin().EvictAll(); err != nil {
		return pt, err
	}
	// Cold pass: every block fetched (or refetched, for budgets too small
	// to retain them).
	if pt.ColdRate, err = rate(1); err != nil {
		return pt, err
	}
	// Warm passes: steady state at this budget.
	fetches0 := eng.Stats().Tier.Fetches
	if pt.WarmRate, err = rate(cfg.Iters); err != nil {
		return pt, err
	}
	pt.WarmFetches = eng.Stats().Tier.Fetches - fetches0

	// Selective predicate: block 0's id range only; every other cold
	// block must be pruned by its manifest zone map without a store read.
	scanBefore, gets := eng.Stats().Scan, cs.Gets()
	if err := eng.View(func(tx *mainline.Txn) error {
		n := 0
		if err := tbl.Filter(tx, mainline.Between("id", 0, int64(cfg.PerBlock)-1), nil,
			func(_ mainline.TupleSlot, _ *mainline.Row) bool {
				n++
				return true
			}); err != nil {
			return err
		}
		if n != cfg.PerBlock {
			return fmt.Errorf("selective scan matched %d rows, want %d", n, cfg.PerBlock)
		}
		return nil
	}); err != nil {
		return pt, err
	}
	pt.PrunedBlocks = eng.Stats().Scan.BlocksPrunedCold - scanBefore.BlocksPrunedCold
	pt.PrunedFetches = cs.Gets() - gets
	return pt, nil
}
