// Command tpcc loads and drives the TPC-C workload against the engine,
// optionally with the background transformation pipeline, and reports
// throughput, block-state coverage, and consistency — the interactive
// version of the paper's §6.1 experiment.
//
// Unlike examples/tpcc (which uses the public handle-scoped API plus
// Engine.Admin), this harness assembles the internal subsystems directly:
// it installs the WAL hook only after the load so the initial population
// is not logged, and watches only the cold ORDER tables — knobs the
// public Open surface deliberately does not expose.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"path/filepath"

	"mainline/internal/catalog"
	"mainline/internal/checkpoint"
	"mainline/internal/checkpoint/manifestlog"
	"mainline/internal/gc"
	"mainline/internal/objstore"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
	"mainline/internal/wal"
	"mainline/internal/workload/tpcc"
)

func main() {
	var (
		warehouses = flag.Int("warehouses", 4, "number of warehouses")
		workers    = flag.Int("workers", 4, "worker goroutines (one home warehouse each)")
		duration   = flag.Duration("duration", 5*time.Second, "measurement duration")
		mode       = flag.String("transform", "gather", "transformation: off|gather|dictionary")
		full       = flag.Bool("full-scale", false, "spec-size database (100K items, 3K customers/district)")
		threshold  = flag.Duration("threshold", 10*time.Millisecond, "cold-block threshold")

		walPath     = flag.String("wal", "", "write-ahead log file (enables group-commit logging)")
		durable     = flag.Bool("durable", false, "terminals wait for the group-commit fsync (needs -wal or -datadir)")
		syncLatency = flag.Duration("sync-latency", 0, "emulate a log device with this fsync cost (0 = raw)")
		syncDelay   = flag.Duration("sync-delay", 0, "group-formation window before each log flush")

		dataDir  = flag.String("datadir", "", "data directory: segmented WAL + Arrow checkpoints (excludes -wal)")
		doCkpt   = flag.Bool("checkpoint", false, "take a checkpoint after the run and truncate the WAL (needs -datadir)")
		segBytes = flag.Int64("segment-size", 0, "WAL segment rotation threshold in bytes (0 = 4MB default)")
	)
	flag.Parse()
	if *dataDir != "" && *walPath != "" {
		fmt.Fprintln(os.Stderr, "-datadir and -wal are mutually exclusive")
		os.Exit(2)
	}
	if *dataDir != "" && *syncLatency > 0 {
		// The segmented sink writes to the real device; silently dropping
		// the emulated latency would make -datadir numbers incomparable to
		// -wal runs carrying the same flag.
		fmt.Fprintln(os.Stderr, "-sync-latency is only supported with -wal")
		os.Exit(2)
	}
	logging := *walPath != "" || *dataDir != ""
	if !logging {
		switch {
		case *durable:
			fmt.Fprintln(os.Stderr, "-durable requires -wal or -datadir")
			os.Exit(2)
		case *syncLatency > 0:
			fmt.Fprintln(os.Stderr, "-sync-latency requires -wal")
			os.Exit(2)
		case *syncDelay > 0:
			fmt.Fprintln(os.Stderr, "-sync-delay requires -wal")
			os.Exit(2)
		}
	}
	if *doCkpt && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "-checkpoint requires -datadir")
		os.Exit(2)
	}
	if *segBytes > 0 && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "-segment-size requires -datadir")
		os.Exit(2)
	}

	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	cat := catalog.New(reg)
	cfg := tpcc.DefaultConfig(*warehouses)
	if *full {
		cfg = tpcc.Full(*warehouses)
	}
	db, err := tpcc.NewDatabase(mgr, cat, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loading %d warehouses (%d items, %d customers/district)...\n",
		cfg.Warehouses, cfg.Items, cfg.CustomersPerDistrict)
	t0 := time.Now()
	p, err := tpcc.Load(db, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded in %v\n", time.Since(t0).Round(time.Millisecond))

	// The WAL hook is installed after load so the initial population is not
	// logged; the run's transactions are.
	var lm *wal.LogManager
	var segSink *wal.SegmentedSink
	switch {
	case *dataDir != "":
		// This harness does not bootstrap (no catalog.json, no replay), so
		// it cannot account for a previous run's segments; require a fresh
		// directory rather than report truncation numbers that exclude
		// untracked old segments.
		if segs, err := wal.ListSegments(filepath.Join(*dataDir, "wal")); err == nil && len(segs) > 0 {
			fmt.Fprintf(os.Stderr, "-datadir %s holds WAL segments from a previous run; use a fresh directory\n", *dataDir)
			os.Exit(2)
		}
		sink, err := wal.OpenSegmentedSink(filepath.Join(*dataDir, "wal"), *segBytes, nil)
		if err != nil {
			log.Fatal(err)
		}
		segSink = sink
		lm = wal.NewLogManager(sink)
		lm.SyncDelay = *syncDelay
		lm.Attach(mgr)
		lm.Start(5 * time.Millisecond)
		db.Durable = *durable
	case *walPath != "":
		var err error
		lm, err = wal.OpenPipeline(*walPath, mgr, *syncLatency, *syncDelay, 5*time.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		db.Durable = *durable
	}

	g := gc.New(mgr)
	obs := transform.NewObserver()
	for _, tbl := range db.OrderTables() {
		obs.Watch(tbl.DataTable)
	}
	g.SetObserver(obs)
	tcfg := transform.DefaultConfig()
	tcfg.Threshold = *threshold
	var tr *transform.Transformer
	switch *mode {
	case "off":
	case "gather":
		tcfg.Mode = transform.ModeGather
		tr = transform.New(mgr, g, obs, tcfg)
	case "dictionary":
		tcfg.Mode = transform.ModeDictionary
		tr = transform.New(mgr, g, obs, tcfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown -transform %q\n", *mode)
		os.Exit(2)
	}

	g.Start(10 * time.Millisecond)
	if tr != nil {
		tr.Start(10 * time.Millisecond)
	}
	fmt.Printf("running %d workers for %v (transform=%s)...\n", *workers, *duration, *mode)
	res := tpcc.Run(db, p, *workers, *duration, 99)
	if tr != nil {
		tr.Stop()
	}
	g.Stop()

	fmt.Printf("\nthroughput: %.0f txn/s, %.0f tpmC (committed %d, aborted %d)\n",
		res.Throughput(), res.TpmC(), res.Total(), res.Aborted)
	if *doCkpt {
		// Push queued commits to disk and snapshot every table as Arrow
		// IPC chunk objects under <datadir>/objects, committed by a
		// version record in <datadir>/MANIFEST.log. Matching the engine's
		// fallback-safe rule, a checkpoint's own segments are released
		// only by its successor — and in this fresh directory there is no
		// predecessor — so the run reports the log a restart would SKIP
		// (covered by the checkpoint) rather than deleting it.
		lm.FlushOnce()
		t1 := time.Now()
		mlog, err := manifestlog.Open(nil, filepath.Join(*dataDir, manifestlog.LogName))
		if err != nil {
			log.Fatal(err)
		}
		store, err := objstore.NewFSStore(filepath.Join(*dataDir, "objects"), nil)
		if err != nil {
			log.Fatal(err)
		}
		info, err := checkpoint.Take(mlog, store, cat, mgr, nil)
		if err != nil {
			log.Fatal(err)
		}
		// Seal the active segment (Truncate through ts 0 rotates but
		// deletes only empty segments) so coverage accounting sees it.
		_, _ = lm.Truncate(0)
		var coveredSegs int
		var coveredBytes int64
		for _, s := range segSink.SealedSegments() {
			if s.MaxTs > 0 && s.MaxTs <= info.SnapshotTs {
				coveredSegs++
				coveredBytes += s.Size
			}
		}
		fmt.Printf("checkpoint %d: %d tables, %d rows, %.1f MB in %v; covers %d WAL segments (%.1f MB) a restart now skips\n",
			info.Seq, info.Tables, info.Rows, float64(info.BytesWritten)/(1<<20),
			time.Since(t1).Round(time.Millisecond), coveredSegs, float64(coveredBytes)/(1<<20))
	}
	if lm != nil {
		// Close first: it drains the final group, so Stats covers the run.
		if err := lm.Close(); err != nil {
			log.Fatal(err)
		}
		txns, bytes, syncs := lm.Stats()
		group := 0.0
		if syncs > 0 {
			group = float64(txns) / float64(syncs)
		}
		fmt.Printf("wal: %d txns logged, %d bytes, %d fsyncs (%.1f txns/fsync, durable=%v)\n",
			txns, bytes, syncs, group, *durable)
	}
	names := []string{"new-order", "payment", "order-status", "delivery", "stock-level"}
	for i, n := range res.Committed {
		fmt.Printf("  %-13s %8d (%.1f%%)\n", names[i], n, 100*float64(n)/float64(res.Total()))
	}
	total, frozen, cooling := 0, 0, 0
	for _, tbl := range db.OrderTables() {
		for _, b := range tbl.Blocks() {
			if b.InsertHead() == 0 {
				continue
			}
			total++
			switch b.State() {
			case storage.StateFrozen:
				frozen++
			case storage.StateCooling:
				cooling++
			}
		}
	}
	if total > 0 {
		fmt.Printf("cold-table blocks: %d total, %.0f%% frozen, %.0f%% cooling\n",
			total, 100*float64(frozen)/float64(total), 100*float64(cooling)/float64(total))
	}
	if tr != nil {
		st := tr.Stats()
		fmt.Printf("pipeline: %d compactions, %d moves, %d frozen, %d recycled, %d preemptions\n",
			st.GroupsCompacted, st.TuplesMoved, st.BlocksFrozen, st.BlocksRecycled, st.Preemptions)
	}
	if err := tpcc.CheckConsistency(db); err != nil {
		log.Fatalf("consistency FAILED: %v", err)
	}
	fmt.Println("consistency checks passed")
}
