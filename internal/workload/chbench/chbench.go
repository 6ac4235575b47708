// Package chbench runs a CH-benCHmark-style hybrid workload: TPC-C
// terminals execute the transactional mix while concurrent analytical
// queries — morsel-driven parallel aggregations and hash joins over the
// same live tables — stream through their own snapshots. Every
// aggregation is cross-checked inside its transaction against a per-slot
// Select oracle (coretest.SelectScan), which reads no row through the
// batch scan the operators use, so the run doubles as an HTAP consistency
// check: a single divergent count means a worker saw a torn snapshot.
//
// The background pipeline (GC + transformation) runs throughout, so
// queries sweep hot, cooling, and frozen dictionary blocks in the same
// pass — the paper's §6.1 setting with an OLAP lane added.
package chbench

import (
	"fmt"
	"sync"
	"time"

	"mainline/internal/catalog"
	"mainline/internal/core/coretest"
	"mainline/internal/exec"
	"mainline/internal/gc"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
	"mainline/internal/workload/tpcc"
)

// Config sizes a hybrid run.
type Config struct {
	// Warehouses is the TPC-C scale factor.
	Warehouses int
	// Terminals is the number of transactional worker goroutines.
	Terminals int
	// Queries is the number of verified analytical passes to run; the
	// transactional side runs until the last query completes.
	Queries int
	// AnalyticsWorkers is the parallel worker count per aggregation.
	AnalyticsWorkers int
	// Seed drives both the loader and the terminals.
	Seed uint64
}

// DefaultConfig is a small but fully hybrid setup.
func DefaultConfig() Config {
	return Config{Warehouses: 2, Terminals: 2, Queries: 20, AnalyticsWorkers: 4, Seed: 42}
}

// Result reports a hybrid run.
type Result struct {
	// TPCC is the transactional side: committed per profile, tpmC.
	TPCC *tpcc.RunResult
	// Queries is the number of verified analytical passes completed.
	Queries int
	// QueriesPerSec is the analytical rate over the run.
	QueriesPerSec float64
	// Exec is the operator-layer counter snapshot (morsels, partials,
	// dictionary fast-path blocks, join cardinalities).
	Exec exec.Stats
}

// Run executes the hybrid workload and verifies every analytical query
// against its per-slot Select oracle.
func Run(cfg Config) (*Result, error) {
	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	cat := catalog.New(reg)
	db, err := tpcc.NewDatabase(mgr, cat, tpcc.DefaultConfig(cfg.Warehouses))
	if err != nil {
		return nil, err
	}
	p, err := tpcc.Load(db, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Background pipeline: GC feeding the observer, transformation to
	// dictionary-encoded frozen blocks over the cold ORDER tables.
	g := gc.New(mgr)
	obs := transform.NewObserver()
	for _, tbl := range db.OrderTables() {
		obs.Watch(tbl.DataTable)
	}
	g.SetObserver(obs)
	tcfg := transform.DefaultConfig()
	tcfg.Mode = transform.ModeDictionary
	tr := transform.New(mgr, g, obs, tcfg)
	g.Start(5 * time.Millisecond)
	tr.Start(5 * time.Millisecond)
	defer func() {
		tr.Stop()
		g.Stop()
	}()

	// Transactional lane: terminals run until the analytical lane is done.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	committed := make([][5]int64, cfg.Terminals)
	start := time.Now()
	for i := 0; i < cfg.Terminals; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := int32(i%cfg.Warehouses) + 1
			wk := tpcc.NewWorker(db, p, w, cfg.Seed+uint64(i)*7919)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if profile, ok := wk.RunOne(); ok {
					committed[i][profile]++
				}
			}
		}(i)
	}

	// Analytical lane.
	var counters exec.Counters
	queries := 0
	analyticsErr := func() error {
		for q := 0; q < cfg.Queries; q++ {
			if err := verifiedAggregate(mgr, db, cfg.AnalyticsWorkers, &counters); err != nil {
				return fmt.Errorf("query %d: %w", q, err)
			}
			if err := verifiedJoin(mgr, db, &counters); err != nil {
				return fmt.Errorf("join %d: %w", q, err)
			}
			queries++
		}
		return nil
	}()
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	if analyticsErr != nil {
		return nil, analyticsErr
	}

	res := &Result{
		TPCC:          &tpcc.RunResult{Elapsed: elapsed},
		Queries:       queries,
		QueriesPerSec: float64(queries) / elapsed.Seconds(),
		Exec:          counters.Snapshot(),
	}
	for _, c := range committed {
		for profile, n := range c {
			res.TPCC.Committed[profile] += n
		}
	}
	return res, nil
}

// verifiedAggregate runs the CH-style revenue query — GROUP BY
// (ol_w_id, ol_d_id): COUNT(*), SUM(ol_amount), MAX(ol_o_id),
// COUNT(ol_delivery_d) — in parallel, then recomputes it one slot at a
// time through Select in the SAME transaction and demands exact equality.
func verifiedAggregate(mgr *txn.Manager, db *tpcc.Database, workers int, c *exec.Counters) error {
	ol := db.OrderLine
	groupBy := []storage.ColumnID{tpcc.OLWID, tpcc.OLDID}
	aggs := []exec.AggSpec{
		{Op: exec.OpCount, Col: -1},
		{Op: exec.OpSum, Col: tpcc.OLAmount},
		{Op: exec.OpMax, Col: tpcc.OLOID},
		{Op: exec.OpCount, Col: tpcc.OLDeliveryD},
	}

	tx := mgr.Begin()
	defer mgr.Commit(tx, nil)
	res, err := exec.Aggregate(tx, &exec.AggPlan{
		Table: ol.DataTable, GroupBy: groupBy, Aggs: aggs, Workers: workers,
	}, c)
	if err != nil {
		return err
	}

	type state struct{ rows, amount, maxOID, delivered int64 }
	oracle := map[[2]int64]*state{}
	err = coretest.SelectScan(ol.DataTable, tx, ol.AllColumnsProjection(), func(_ storage.TupleSlot, row *storage.ProjectedRow) bool {
		k := [2]int64{int64(row.Int32(tpcc.OLWID)), int64(row.Int32(tpcc.OLDID))}
		st := oracle[k]
		if st == nil {
			st = &state{maxOID: -1 << 62}
			oracle[k] = st
		}
		st.rows++
		st.amount += row.Int64(tpcc.OLAmount)
		if oid := int64(row.Int32(tpcc.OLOID)); oid > st.maxOID {
			st.maxOID = oid
		}
		if !row.IsNull(tpcc.OLDeliveryD) {
			st.delivered++
		}
		return true
	})
	if err != nil {
		return err
	}

	if res.Len() != len(oracle) {
		return fmt.Errorf("chbench: %d groups parallel vs %d select-path", res.Len(), len(oracle))
	}
	for r := 0; r < res.Len(); r++ {
		k := [2]int64{res.GroupInt(r, 0), res.GroupInt(r, 1)}
		st := oracle[k]
		if st == nil {
			return fmt.Errorf("chbench: group %v not in select-path oracle", k)
		}
		if res.Int(r, 0) != st.rows || res.Int(r, 1) != st.amount ||
			res.Int(r, 2) != st.maxOID || res.Int(r, 3) != st.delivered {
			return fmt.Errorf("chbench: group %v diverged: parallel (%d, %d, %d, %d) vs select (%d, %d, %d, %d)",
				k, res.Int(r, 0), res.Int(r, 1), res.Int(r, 2), res.Int(r, 3),
				st.rows, st.amount, st.maxOID, st.delivered)
		}
	}
	return nil
}

// verifiedJoin probes ORDER_LINE against ITEM on the item id. Every order
// line references an existing item (referential integrity the loader and
// New-Order maintain), so the match count must equal the probe-side row
// count — checked against a per-slot Select walk in the same transaction.
func verifiedJoin(mgr *txn.Manager, db *tpcc.Database, c *exec.Counters) error {
	tx := mgr.Begin()
	defer mgr.Commit(tx, nil)

	matches := 0
	err := exec.HashJoin(tx, &exec.JoinPlan{
		Build: db.Item.DataTable, Probe: db.OrderLine.DataTable,
		BuildKey: tpcc.IID, ProbeKey: tpcc.OLIID,
		BuildCols: []storage.ColumnID{tpcc.IPrice},
		ProbeCols: []storage.ColumnID{tpcc.OLQuantity},
	}, c, func(_, _ *exec.JoinRow) bool {
		matches++
		return true
	})
	if err != nil {
		return err
	}
	rows := 0
	ol := db.OrderLine
	err = coretest.SelectScan(ol.DataTable, tx, ol.AllColumnsProjection(), func(storage.TupleSlot, *storage.ProjectedRow) bool {
		rows++
		return true
	})
	if err != nil {
		return err
	}
	if matches != rows {
		return fmt.Errorf("chbench: join matched %d of %d order lines — referential integrity or snapshot broken", matches, rows)
	}
	return nil
}
