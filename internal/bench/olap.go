package bench

// The OLAP sweep (not a paper figure): parallel aggregation throughput
// versus worker count over a frozen multi-block table, plus the dictionary
// fast path and the hash join. It quantifies ISSUE 6's acceptance target:
// morsel-driven aggregation scaling >= 3x from 1 to 8 workers on an
// 8-core host.

import (
	"fmt"
	"runtime"
	"time"

	"mainline/internal/arrow"
	"mainline/internal/benchutil"
	"mainline/internal/catalog"
	"mainline/internal/core"
	"mainline/internal/exec"
	"mainline/internal/gc"
	"mainline/internal/obs"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
)

// OlapConfig sizes the OLAP sweep.
type OlapConfig struct {
	// Blocks is the number of sealed blocks (the morsel count — must
	// exceed the largest worker count for parallelism to matter).
	Blocks int
	// PerBlock is the tuple count per block.
	PerBlock int
	// Iters is the measured query repetitions per point.
	Iters int
}

// DefaultOlapConfig mirrors the acceptance setup: 32 frozen
// dictionary-encoded blocks, enough morsels for 8+ workers.
func DefaultOlapConfig() OlapConfig {
	return OlapConfig{Blocks: 32, PerBlock: 4000, Iters: 8}
}

var olapVocab = []string{
	"alpha", "bravo", "chile", "delta", "echo", "fotxt", "golfo", "hotel",
	"india", "julie", "kilos", "limas", "mikes", "novem", "oscar", "papas",
}

func buildOlapTable(cfg OlapConfig) (*txn.Manager, *catalog.Table, error) {
	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	cat := catalog.New(reg)
	table, err := cat.CreateTable("olap", arrow.NewSchema(
		arrow.Field{Name: "id", Type: arrow.INT64},
		arrow.Field{Name: "grp", Type: arrow.STRING},
		arrow.Field{Name: "val", Type: arrow.INT64},
	))
	if err != nil {
		return nil, nil, err
	}
	row := table.AllColumnsProjection().NewRow()
	id := int64(0)
	for b := 0; b < cfg.Blocks; b++ {
		tx := mgr.Begin()
		for i := 0; i < cfg.PerBlock; i++ {
			row.Reset()
			row.SetInt64(0, id)
			row.SetVarlen(1, []byte(olapVocab[id%int64(len(olapVocab))]))
			row.SetInt64(2, id%1000)
			if _, err := table.Insert(tx, row); err != nil {
				mgr.Abort(tx)
				return nil, nil, err
			}
			id++
		}
		mgr.Commit(tx, nil)
		blk := table.Blocks()[len(table.Blocks())-1]
		blk.SetInsertHead(blk.Layout.NumSlots)
	}
	g := gc.New(mgr)
	for i := 0; i < 3; i++ {
		g.RunOnce()
	}
	for _, b := range table.Blocks() {
		if b.HasActiveVersions() {
			return nil, nil, fmt.Errorf("bench: chains not pruned; cannot freeze")
		}
		b.SetState(storage.StateFreezing)
		if err := transform.GatherBlock(b, transform.ModeDictionary, nil); err != nil {
			return nil, nil, err
		}
	}
	return mgr, table, nil
}

// Olap runs the sweep and returns the worker-scaling table. It fails when
// the host has >= 8 cores and 8 workers do not reach 3x the single-worker
// aggregation rate.
func Olap(cfg OlapConfig) (*benchutil.Table, error) {
	mgr, table, err := buildOlapTable(cfg)
	if err != nil {
		return nil, err
	}
	totalRows := int64(cfg.Blocks * cfg.PerBlock)
	aggs := []exec.AggSpec{
		{Op: exec.OpCount, Col: -1},
		{Op: exec.OpSum, Col: 2},
		{Op: exec.OpMin, Col: 0},
		{Op: exec.OpMax, Col: 0},
	}
	groupBy := []storage.ColumnID{1}

	runQuery := func(workers int) (float64, obs.HistSnapshot, error) {
		plan := &exec.AggPlan{Table: table.DataTable, GroupBy: groupBy, Aggs: aggs, Workers: workers}
		// Per-query latency flows through the same exec.Counters hook the
		// engine uses for Stats().Latency.Query.
		lat := obs.NewHistogram("olap_query", "", "seconds", "")
		var ctr exec.Counters
		ctr.SetLatency(lat)
		// Warm outside the measurement.
		tx := mgr.Begin()
		res, err := exec.Aggregate(tx, plan, nil)
		mgr.Commit(tx, nil)
		if err != nil {
			return 0, obs.HistSnapshot{}, err
		}
		if res.Len() != len(olapVocab) {
			return 0, obs.HistSnapshot{}, fmt.Errorf("bench: %d groups, want %d", res.Len(), len(olapVocab))
		}
		start := time.Now()
		for i := 0; i < cfg.Iters; i++ {
			tx := mgr.Begin()
			_, err := exec.Aggregate(tx, plan, &ctr)
			mgr.Commit(tx, nil)
			if err != nil {
				return 0, obs.HistSnapshot{}, err
			}
		}
		return float64(totalRows*int64(cfg.Iters)) / time.Since(start).Seconds(), lat.Snapshot(), nil
	}

	t := &benchutil.Table{
		Title:  "OLAP sweep — morsel-driven parallel aggregation (rows/s vs workers)",
		Note:   fmt.Sprintf("%d frozen dictionary blocks x %d tuples; GROUP BY grp, 4 aggregates", cfg.Blocks, cfg.PerBlock),
		Header: []string{"workers", "rows/s", "q p50", "q p99", "speedup"},
	}
	workerCounts := []int{1}
	for w := 2; w <= runtime.NumCPU(); w *= 2 {
		workerCounts = append(workerCounts, w)
	}
	rates := make(map[int]float64, len(workerCounts))
	var base float64
	for i, w := range workerCounts {
		rate, lat, err := runQuery(w)
		if err != nil {
			return nil, err
		}
		rates[w] = rate
		speedup := "1.00x"
		if i == 0 {
			base = rate
		} else {
			speedup = fmt.Sprintf("%.2fx", rate/base)
		}
		t.AddRow(fmt.Sprintf("%d", w), benchutil.OpsPerSec(int64(rate), time.Second),
			benchutil.Seconds(lat.QuantileDuration(0.50)),
			benchutil.Seconds(lat.QuantileDuration(0.99)),
			speedup)
	}

	// Predicate-pushdown point: the selection vector feeds the kernels.
	pred := core.NewIntPred(2, 0, 499)
	tx := mgr.Begin()
	start := time.Now()
	for i := 0; i < cfg.Iters; i++ {
		if _, err := exec.Aggregate(tx, &exec.AggPlan{
			Table: table.DataTable, GroupBy: groupBy, Aggs: aggs, Pred: pred, Workers: runtime.NumCPU(),
		}, nil); err != nil {
			mgr.Commit(tx, nil)
			return nil, err
		}
	}
	predRate := float64(totalRows*int64(cfg.Iters)) / time.Since(start).Seconds()
	mgr.Commit(tx, nil)
	t.AddRow("pred 50%", benchutil.OpsPerSec(int64(predRate), time.Second), "-", "-", fmt.Sprintf("%.2fx", predRate/base))

	if runtime.NumCPU() >= 8 {
		if r8, ok := rates[8]; ok && r8 < 3*rates[1] {
			return nil, fmt.Errorf("bench: 8-worker aggregation only %.2fx the single-worker rate (acceptance: >=3x)", r8/rates[1])
		}
	}
	return t, nil
}
