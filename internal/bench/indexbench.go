package bench

// The index sweep (not a paper figure): point lookups and ordered range
// sweeps through the engine-managed secondary index against answering the
// same queries with a full vectorized Filter and a tuple-at-a-time Scan —
// ISSUE 5's acceptance scenario (indexed point read >= 10x a full Filter
// on a >=4-block frozen table). The MVCC re-verification cost is visible
// in the reported "re-verified" column: every emitted slot was re-checked
// through the version chain.

import (
	"fmt"
	"time"

	"mainline/internal/arrow"
	"mainline/internal/benchutil"
	"mainline/internal/catalog"
	"mainline/internal/core"
	"mainline/internal/gc"
	"mainline/internal/index"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
)

// IndexBenchConfig sizes the index sweep.
type IndexBenchConfig struct {
	// Blocks is the number of sealed blocks; PerBlock the tuples in each.
	Blocks   int
	PerBlock int
	// Lookups is the number of point reads per scenario; Ranges the
	// number of range sweeps; Span the keys per range sweep.
	Lookups int
	Ranges  int
	Span    int
}

// DefaultIndexBenchConfig mirrors the acceptance setup: a 4-block frozen
// table with a unique int64 key per row.
func DefaultIndexBenchConfig() IndexBenchConfig {
	return IndexBenchConfig{Blocks: 4, PerBlock: 20000, Lookups: 20000, Ranges: 200, Span: 200}
}

type indexEnv struct {
	mgr   *txn.Manager
	table *catalog.Table
	pk    *core.TableIndex
}

func buildIndexTable(cfg IndexBenchConfig) (*indexEnv, error) {
	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	g := gc.New(mgr) // also installs the index deferrer
	cat := catalog.New(reg)
	table, err := cat.CreateTable("indexed", arrow.NewSchema(
		arrow.Field{Name: "id", Type: arrow.INT64},
		arrow.Field{Name: "payload", Type: arrow.STRING},
		arrow.Field{Name: "amount", Type: arrow.INT64},
	))
	if err != nil {
		return nil, err
	}
	pk, err := table.CreateIndex(catalog.IndexSpec{Name: "pk", Columns: []string{"id"}})
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
			row.SetInt64(2, id%500)
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
	for i := 0; i < 3; i++ {
		g.RunOnce()
	}
	for _, b := range table.Blocks() {
		if b.HasActiveVersions() {
			return nil, fmt.Errorf("bench: chains not pruned")
		}
		b.SetState(storage.StateFreezing)
		if err := transform.GatherBlock(b, transform.ModeGather, nil); err != nil {
			return nil, err
		}
	}
	return &indexEnv{mgr: mgr, table: table, pk: pk}, nil
}

// IndexBench runs the sweep and returns the comparison table.
func IndexBench(cfg IndexBenchConfig) (*benchutil.Table, error) {
	env, err := buildIndexTable(cfg)
	if err != nil {
		return nil, err
	}
	mgr, table, pk := env.mgr, env.table, env.pk
	total := int64(cfg.Blocks * cfg.PerBlock)
	readProj := storage.MustProjection(table.Layout(), []storage.ColumnID{0, 2})
	out := readProj.NewRow()
	pred := func(id int64) *core.Predicate { return core.NewIntPred(0, id, id) }

	t := &benchutil.Table{
		Title: "Index sweep — engine-managed indexed reads vs vectorized Filter vs Scan",
		Note: fmt.Sprintf("%d blocks x %d tuples frozen, unique int64 key; %d point reads, %d x %d-key ranges",
			cfg.Blocks, cfg.PerBlock, cfg.Lookups, cfg.Ranges, cfg.Span),
		Header: []string{"scenario", "path", "ops/s", "speedup vs filter"},
	}

	timeOps := func(n int, fn func(i int, tx *txn.Transaction) error) (float64, error) {
		tx := mgr.Begin()
		defer mgr.Commit(tx, nil)
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i, tx); err != nil {
				return 0, err
			}
		}
		return float64(n) / time.Since(start).Seconds(), nil
	}

	key := func(i int) int64 {
		id := int64(i*2654435761) % total
		if id < 0 {
			id += total
		}
		return id
	}

	// Point reads.
	filterRate, err := timeOps(cfg.Lookups/10, func(i int, tx *txn.Transaction) error {
		n := 0
		err := table.ScanBatches(tx, readProj, pred(key(i)), func(b *core.Batch) bool {
			n += b.Len()
			return true
		})
		if err == nil && n != 1 {
			return fmt.Errorf("filter matched %d rows", n)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	indexedRate, err := timeOps(cfg.Lookups, func(i int, tx *txn.Transaction) error {
		if _, ok := pk.GetVisible(tx, index.NewKeyBuilder(8).Int64(key(i)).Bytes(), out); !ok {
			return fmt.Errorf("id %d missing", key(i))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	scanRate, err := timeOps(cfg.Lookups/1000+2, func(i int, tx *txn.Transaction) error {
		want := key(i)
		found := false
		err := table.Scan(tx, readProj, func(_ storage.TupleSlot, r *storage.ProjectedRow) bool {
			if r.Int64(0) == want {
				found = true
				return false
			}
			return true
		})
		if err == nil && !found {
			return fmt.Errorf("id %d missing", want)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("point", "filter (vectorized)", benchutil.OpsPerSec(int64(filterRate), time.Second), "1.00x")
	t.AddRow("point", "indexed GetBy", benchutil.OpsPerSec(int64(indexedRate), time.Second), fmt.Sprintf("%.2fx", indexedRate/filterRate))
	t.AddRow("point", "full scan", benchutil.OpsPerSec(int64(scanRate), time.Second), fmt.Sprintf("%.2fx", scanRate/filterRate))

	// Range sweeps.
	span := int64(cfg.Span)
	rangeFilterRate, err := timeOps(cfg.Ranges, func(i int, tx *txn.Transaction) error {
		lo := (int64(i) * 977) % (total - span)
		n := 0
		err := table.ScanBatches(tx, readProj, core.NewIntPred(0, lo, lo+span-1), func(b *core.Batch) bool {
			n += b.Len()
			return true
		})
		if err == nil && int64(n) != span {
			return fmt.Errorf("filter range matched %d rows", n)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rangeIdxRate, err := timeOps(cfg.Ranges, func(i int, tx *txn.Transaction) error {
		lo := (int64(i) * 977) % (total - span)
		n := int64(0)
		loKey := index.NewKeyBuilder(8).Int64(lo).Bytes()
		hiKey := index.NewKeyBuilder(8).Int64(lo + span).Bytes()
		pk.Ascend(tx, loKey, hiKey, out, func(storage.TupleSlot, *storage.ProjectedRow) bool {
			n++
			return true
		})
		if n != span {
			return fmt.Errorf("index range emitted %d rows", n)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("range", "filter (pruned)", benchutil.OpsPerSec(int64(rangeFilterRate), time.Second), "1.00x")
	t.AddRow("range", "indexed RangeBy", benchutil.OpsPerSec(int64(rangeIdxRate), time.Second), fmt.Sprintf("%.2fx", rangeIdxRate/rangeFilterRate))

	c := pk.Counters()
	t.AddRow("stats", fmt.Sprintf("entries %d, re-verified %d, stale filtered %d", c.Entries, c.SlotsReverified, c.StaleFiltered), "", "")

	if indexedRate < 10*filterRate {
		return nil, fmt.Errorf("bench: indexed point read only %.1fx the vectorized filter (acceptance: >=10x)", indexedRate/filterRate)
	}
	return t, nil
}
