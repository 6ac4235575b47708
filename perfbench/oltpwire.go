package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"mainline"
	"mainline/client"
	"mainline/internal/server"
)

// oltp-wire: durable, skewed keyed read-modify-write over the client →
// server wire against the engine a user runs (data directory, background
// loops, periodic checkpoints, object store). Each connection owns a key
// range, so no two connections write one key. Keys favour the newest ones
// (YCSB "latest"), so old blocks cool, freeze, get evicted and are
// occasionally rethawed. The tiering policy (scale.oltpCold,
// scale.oltpSweepEvery) is fitted to that distribution: with the engine's
// 10 ms freeze threshold the transformer froze and thawed every block
// without pause and throughput swung with it (README.md). Eviction sweeps
// are driven by the commit count, not a timer: with timed sweeps a slower
// run left more blocks idle for two sweeps, evicted and rethawed more of
// them (32 against 265 evictions in one set), and that work slowed it
// further.

const (
	kvTable = "kv"
	kvIndex = "by_k"
	// keySpan separates the connections' key ranges: connection w owns
	// keys w*keySpan + offset.
	keySpan = int64(1) << 40
	// kvPadLen is the width of the pad column; a row holds 3*8 + kvPadLen
	// user bytes.
	kvPadLen   = 24
	kvRowBytes = 3*8 + kvPadLen
	// kvInsertFrac of transactions target a brand-new key.
	kvInsertFrac = 0.05
	// kvZipfTheta is YCSB's zipfian constant, which its "latest"
	// distribution applies to recency.
	kvZipfTheta = 0.99
)

var kvSchema = mainline.NewSchema(
	mainline.Field{Name: "k", Type: mainline.INT64},
	mainline.Field{Name: "v", Type: mainline.INT64},
	mainline.Field{Name: "ver", Type: mainline.INT64},
	mainline.Field{Name: "pad", Type: mainline.STRING},
)

var kvCols = []string{"k", "v", "ver", "pad"}

func kvPad(k int64) string { return fmt.Sprintf("pad-%020d", k) }

// kvEntry is one key's last committed state in a connection's oracle.
type kvEntry struct {
	v, ver int64
	live   bool
}

// kvWorker is one connection: its key range, its oracle, and its
// failure accounting.
type kvWorker struct {
	id      int
	rng     *rand.Rand
	latest  *latestGen
	oracle  []kvEntry // by key offset; len(oracle) offsets have been used
	c       *client.Client
	tr      *tracer
	seq     uint64
	commits *atomic.Int64 // every connection's commits

	readMismatch int64    // reads that disagreed with the oracle
	fails        failures // failed transactions by step/kind
}

func (w *kvWorker) key(off int) int64 { return int64(w.id)*keySpan + int64(off) }

// pick chooses the next key offset: a new key, or one near the newest.
func (w *kvWorker) pick() int {
	if w.rng.Float64() < kvInsertFrac {
		w.oracle = append(w.oracle, kvEntry{})
		return len(w.oracle) - 1
	}
	return w.latest.next(len(w.oracle))
}

// latestGen draws key offsets as YCSB's SkewedLatestGenerator does: the
// newest of n keys is the most likely, and the distance back from it
// follows YCSB's ZipfianGenerator (Gray et al., "Quickly Generating
// Billion-Record Synthetic Databases", SIGMOD 1994) with constant theta.
// zeta(n) is extended incrementally as keys are inserted.
type latestGen struct {
	rng                        *rand.Rand
	theta, alpha, zeta2, zetan float64
	n                          int // keys zetan covers
}

func newLatestGen(rng *rand.Rand, theta float64) *latestGen {
	return &latestGen{rng: rng, theta: theta, alpha: 1 / (1 - theta), zeta2: 1 + math.Pow(0.5, theta)}
}

// next returns an offset in [0, n), n-1 being the newest key.
func (g *latestGen) next(n int) int {
	for ; g.n < n; g.n++ {
		g.zetan += 1 / math.Pow(float64(g.n+1), g.theta)
	}
	eta := (1 - math.Pow(2/float64(n), 1-g.theta)) / (1 - g.zeta2/g.zetan)
	u := g.rng.Float64()
	uz := u * g.zetan
	var back int
	switch {
	case uz < 1:
		back = 0
	case uz < g.zeta2:
		back = 1
	default:
		back = int(float64(n) * math.Pow(eta*u-eta+1, g.alpha))
	}
	return n - 1 - min(back, n-1)
}

// kvMaxTries bounds how often a connection tries one transaction.
const kvMaxTries = 100

// once runs one transaction on a chosen key and returns how it ended and
// how many tries it took. The connections never share a key, but the
// engine's background work on a block can still abort a write with a
// write-write conflict (about one transaction in 55 000); the connection
// retries it, as a client does, and the retry is counted. Any other error
// fails the transaction.
func (w *kvWorker) once() (outcome, int) {
	off := w.pick()
	w.seq++
	id := uint64(w.id)<<40 | w.seq
	root := w.tr.begin("txn", -1, id)
	defer w.tr.end(root)
	for tries := 1; ; tries++ {
		step, err := w.attempt(off, root, id)
		if err == nil {
			w.commits.Add(1)
			return committed, tries
		}
		w.fails.add(step, err)
		if !errors.Is(err, mainline.ErrWriteConflict) || tries == kvMaxTries {
			return failed, tries
		}
	}
}

// attempt runs Begin(Durable) → GetBy → Update or Insert → Commit
// once and returns the failed step with its error. The oracle advances
// only on an acknowledged commit.
func (w *kvWorker) attempt(off int, root int32, id uint64) (string, error) {
	k := w.key(off)
	sp := w.tr.begin("begin", root, id)
	tx, err := w.c.Begin(client.Durable)
	w.tr.end(sp)
	if err != nil {
		return "begin", err
	}
	sp = w.tr.begin("getby", root, id)
	cur, err := tx.GetBy(kvTable, kvIndex, []any{k}, "v", "ver")
	w.tr.end(sp)
	if err != nil {
		_ = tx.Abort()
		return "getby", err
	}
	e := &w.oracle[off]
	if (cur != nil) != e.live || (cur != nil && (cur.Int("v") != e.v || cur.Int("ver") != e.ver)) {
		if w.readMismatch++; w.readMismatch == 1 {
			fmt.Printf("  first read mismatch: key %d read %+v, last commit %+v\n", k, cur, *e)
		}
	}
	var next kvEntry
	sp = w.tr.begin("write", root, id)
	switch {
	case cur == nil:
		next = kvEntry{v: w.rng.Int63n(1 << 40), ver: 1, live: true}
		_, err = tx.Insert(kvTable, kvCols, []any{k, next.v, next.ver, kvPad(k)})
	default:
		next = kvEntry{v: w.rng.Int63n(1 << 40), ver: e.ver + 1, live: true}
		err = tx.Update(kvTable, cur.Slot, kvCols[1:3], []any{next.v, next.ver})
	}
	w.tr.end(sp)
	if err != nil {
		_ = tx.Abort()
		return "write", err
	}
	sp = w.tr.begin("commit", root, id)
	_, err = tx.Commit()
	w.tr.end(sp)
	if err != nil {
		return "commit", err
	}
	*e = next
	return "", nil
}

// kvInitial generates each connection's initial rows from the seed.
func kvInitial(seed int64, rows, conns int) [][]kvEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]kvEntry, conns)
	for w := range out {
		out[w] = make([]kvEntry, rows/conns)
		for i := range out[w] {
			out[w][i] = kvEntry{v: rng.Int63n(1 << 40), ver: 1, live: true}
		}
	}
	return out
}

func openKV(dir string, sc scale, background bool) (*mainline.Engine, error) {
	opts := []mainline.Option{
		mainline.WithDataDir(filepath.Join(dir, "data")),
		mainline.WithObjectStore(filepath.Join(dir, "obj")),
		mainline.WithFaultFS(noSyncFS{}),
	}
	if background {
		// The background sweeper's interval is longer than any run:
		// sweepByCommits drives the sweeps.
		opts = append(opts, mainline.WithBackground(), mainline.WithCheckpointInterval(sc.oltpCheckpoint),
			mainline.WithColdThreshold(sc.oltpCold), mainline.WithTierSweepInterval(time.Hour))
	}
	return mainline.Open(opts...)
}

// setupKV opens an empty directory with the user's configuration, loads
// the initial rows with their index, and takes the initial checkpoint.
func setupKV(dir string, sc scale, init [][]kvEntry) (*mainline.Engine, error) {
	eng, err := openKV(dir, sc, true)
	if err != nil {
		return nil, err
	}
	err = func() error {
		tbl, err := eng.CreateTable(kvTable, kvSchema)
		if err != nil {
			return err
		}
		if _, err := tbl.CreateIndex(kvIndex, "k"); err != nil {
			return err
		}
		w := &kvWorker{}
		for wi, entries := range init {
			w.id = wi
			for lo := 0; lo < len(entries); lo += 2000 {
				hi := min(lo+2000, len(entries))
				if err := eng.Update(func(tx *mainline.Txn) error {
					row := tbl.NewRow()
					for off := lo; off < hi; off++ {
						k, e := w.key(off), entries[off]
						row.Reset()
						_ = row.Set("k", k)
						_ = row.Set("v", e.v)
						_ = row.Set("ver", e.ver)
						_ = row.Set("pad", kvPad(k))
						if _, err := tbl.Insert(tx, row); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return err
				}
			}
		}
		_, err = eng.Checkpoint()
		return err
	}()
	if err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

func runOLTPWire(b *bench) error {
	conns := connections()
	init := kvInitial(b.seed, b.sc.oltpRows, conns)

	// Set up several times; setup_s is the median, the last setup is used.
	var eng *mainline.Engine
	dir := ""
	for i := 0; i < b.sc.setups; i++ {
		if eng != nil {
			eng.Close()
			_ = os.RemoveAll(dir)
		}
		dir = filepath.Join(b.dir, fmt.Sprintf("setup-%d", i))
		if err := b.timeSetup(func() (err error) {
			eng, err = setupKV(dir, b.sc, init)
			return err
		}); err != nil {
			return err
		}
	}
	b.recordSetup()

	srv := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Listen()
	if err != nil {
		eng.Close()
		return err
	}
	var commits atomic.Int64
	workers := make([]*kvWorker, conns)
	for i := range workers {
		rng := rand.New(rand.NewSource(b.seed*7919 + int64(i)))
		w := &kvWorker{
			id: i, rng: rng, oracle: append([]kvEntry(nil), init[i]...),
			latest: newLatestGen(rng, kvZipfTheta), fails: failures{}, commits: &commits,
		}
		if w.c, err = client.Dial(addr); err != nil {
			srv.Close()
			eng.Close()
			return err
		}
		workers[i] = w
	}
	closeAll := func() {
		for _, w := range workers {
			w.c.Close()
		}
		srv.Close()
	}

	// Timed passes: one untraced; a traced run adds a traced one and
	// reports the difference as tracing overhead.
	var res passResult
	var stats []loopStats
	var before, after mainline.Stats
	var rtBefore runtimeSnap
	var lagMax, untracedTput, untracedP50 float64
	for pass := 0; pass < 1+btoi(b.trace); pass++ {
		for _, w := range workers {
			if pass == 1 {
				w.tr = b.traces.tracer()
			}
		}
		before, rtBefore = eng.Stats(), readRuntime()
		stopSweeps := sweepByCommits(eng, &commits, b.sc.oltpSweepEvery)
		res, stats, lagMax = driveLoop(b, conns, func(i int) (outcome, int) { return workers[i].once() },
			func() float64 { return float64(eng.Health().GCWatermarkLag) })
		if err := stopSweeps(); err != nil {
			closeAll()
			eng.Close()
			return fmt.Errorf("eviction sweep: %w", err)
		}
		after = eng.Stats()
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
	var readMismatch int64
	var fails []failures
	for _, w := range workers {
		readMismatch += w.readMismatch
		fails = append(fails, w.fails)
	}
	if b.trace {
		recordSpanLayers(b, b.traces.summary(), "txn", map[string]string{
			"begin": "server.begin_rtt_us", "getby": "server.getby_rtt_us",
			"write": "server.write_rtt_us", "commit": "server.commit_rtt_us",
		})
	}
	states := eng.BlockStates(kvTable)
	b.layer["transform.frozen_block_fraction"] = ratio(float64(states[3]), float64(states[0]+states[1]+states[2]+states[3]))

	fmt.Printf("oltp-wire: %d connections, %d initial rows, durable commits, checkpoint every %v\n",
		conns, b.sc.oltpRows, b.sc.oltpCheckpoint)
	printFailures(fails...)
	ckpts := after.Checkpoint.Taken - before.Checkpoint.Taken
	evictions := after.Tier.Evictions - before.Tier.Evictions
	rethaws := after.Tier.Rethaws - before.Tier.Rethaws
	b.check(readMismatch == 0, "oltp-wire: %d reads disagreed with the connection's own last commit", readMismatch)
	b.check(ckpts >= 2, "oltp-wire: %d checkpoints in the timed pass, want >= 2", ckpts)
	b.check(evictions > 0, "oltp-wire: no block was evicted in the timed pass")
	b.check(rethaws > 0, "oltp-wire: no evicted block was rethawed in the timed pass")

	// Output check 1: replay the oracles against a full export.
	mismatches, live, err := verifyKVWire(addr, workers)
	closeAll()
	if err != nil {
		eng.Close()
		return err
	}
	b.check(mismatches == 0, "oltp-wire: %d oracle mismatches in the final export", mismatches)
	liveBytes := float64(live * kvRowBytes)

	t0 := time.Now()
	if _, err := eng.Checkpoint(); err != nil {
		eng.Close()
		return err
	}
	b.span("checkpoint", t0)
	stored := float64(dirSize(filepath.Join(dir, "data")) + dirSize(filepath.Join(dir, "obj")))
	b.layer["e2e.stored_bytes_per_user_byte"] = stored / liveBytes
	b.layer["checkpoint.bytes_per_user_byte"] = ratio(ratio(float64(after.Checkpoint.BytesWritten-before.Checkpoint.BytesWritten), float64(ckpts)), liveBytes)
	if err := eng.Close(); err != nil {
		return err
	}

	restart, err := kvRestart(b, dir, workers, liveBytes)
	if err != nil {
		return err
	}
	b.layer["e2e.restart_s"] = restart

	b.report("restart_s", "s", restart)
	b.report("stored_bytes_per_user_byte", "ratio", b.layer["e2e.stored_bytes_per_user_byte"])
	b.report("checkpoints", "count", float64(ckpts))
	b.report("evictions", "count", float64(evictions))
	b.report("rethaws", "count", float64(rethaws))
	b.report("rethaw_txn_share", "ratio", b.layer["tier.rethaw_txn_share"])
	if b.trace {
		if err := runExportLayers(b); err != nil {
			return err
		}
		b.layer["trace.spans"] = float64(b.traces.count())
	}
	return nil
}

// sweepByCommits runs an eviction sweep each time commits grows by every,
// until the returned function stops it and reports the first sweep error.
func sweepByCommits(eng *mainline.Engine, commits *atomic.Int64, every int64) func() error {
	stop, done := make(chan struct{}), make(chan error)
	go func() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		next := commits.Load() + every
		for {
			select {
			case <-stop:
				done <- nil
				return
			case <-t.C:
				if commits.Load() < next {
					continue
				}
				next += every
				if _, err := eng.Admin().TierSweep(); err != nil {
					<-stop
					done <- err
					return
				}
			}
		}
	}()
	return func() error {
		close(stop)
		return <-done
	}
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

// verifyKVWire compares one full DoGet export with the merged oracles in
// both directions and returns the mismatches and the live row count.
func verifyKVWire(addr string, workers []*kvWorker) (mismatches, live int64, err error) {
	c, err := client.Dial(addr)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	got := map[int64]kvEntry{}
	_, err = c.DoGet(kvTable, []string{"k", "v", "ver"}, nil, func(rb *mainline.RecordBatch) error {
		kc, vc, verc := rb.Column("k"), rb.Column("v"), rb.Column("ver")
		for i := 0; i < rb.NumRows; i++ {
			k := kc.Int64(i)
			if _, dup := got[k]; dup {
				mismatches++
			}
			got[k] = kvEntry{v: vc.Int64(i), ver: verc.Int64(i), live: true}
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("verification export: %w", err)
	}
	return mismatches + compareKV(got, workers), int64(len(got)), nil
}

// compareKV counts keys whose state in got differs from the oracles.
func compareKV(got map[int64]kvEntry, workers []*kvWorker) int64 {
	var mismatches int64
	expect := 0
	for _, w := range workers {
		for off, e := range w.oracle {
			if !e.live {
				continue
			}
			expect++
			if g, ok := got[w.key(off)]; !ok || g != e {
				mismatches++
			}
		}
	}
	if extra := len(got) - expect; extra > 0 {
		mismatches += int64(extra)
	}
	return mismatches
}

// scanKV reads the table in process into a key → state map.
func scanKV(eng *mainline.Engine) (map[int64]kvEntry, error) {
	tbl := eng.Table(kvTable)
	if tbl == nil {
		return nil, fmt.Errorf("table %s missing after reopen", kvTable)
	}
	got := map[int64]kvEntry{}
	err := eng.View(func(tx *mainline.Txn) error {
		return tbl.Scan(tx, []string{"k", "v", "ver"}, func(_ mainline.TupleSlot, row *mainline.Row) bool {
			got[row.Int64("k")] = kvEntry{v: row.Int64("v"), ver: row.Int64("ver"), live: true}
			return true
		})
	})
	return got, err
}

// kvRestart reopens the directory (measuring its memory and checking the
// oracles again), builds the crash image — checkpoint, a fixed tail of commits, SimulateCrash — and
// times Open on copies of it, returning the median.
func kvRestart(b *bench, dir string, workers []*kvWorker, liveBytes float64) (float64, error) {
	// Memory is the heap the reopened engine adds, whose state follows
	// from the data alone (every block resident, no background loop); the
	// running engine's moved by 13 % from run to run with how many blocks
	// the loops had evicted when it was read. The benchmark's own oracles
	// are live on both sides of the difference.
	heapBefore := heapLive()
	eng, err := openKV(dir, b.sc, false)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	b.e2e["mem_bytes_per_user_byte"] = (heapLive() - heapBefore) / liveBytes
	got, err := scanKV(eng)
	if err != nil {
		eng.Close()
		return 0, err
	}
	b.check(compareKV(got, workers) == 0, "oltp-wire: oracle mismatches after a clean reopen")
	if _, err := eng.Checkpoint(); err != nil {
		eng.Close()
		return 0, err
	}
	tail := b.sc.oltpCrashTail
	if err := kvCrashTail(eng, workers, tail); err != nil {
		eng.Close()
		return 0, err
	}
	eng.Admin().SimulateCrash()

	var times []float64
	for i := 0; i < b.sc.oltpRestarts; i++ {
		img := filepath.Join(b.dir, fmt.Sprintf("crash-image-%d", i))
		if err := copyTree(dir, img); err != nil {
			return 0, err
		}
		t0 := time.Now()
		eng, err := openKV(img, b.sc, false)
		if err != nil {
			return 0, fmt.Errorf("open crash image: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		b.span("open", t0)
		if i == 0 {
			rec := eng.Stats().Recovery
			b.layer["checkpoint.recovery_tail_txns"] = float64(rec.TailTxnsApplied)
			b.layer["index.rebuild_ms"] = float64(rec.IndexRebuildDuration) / 1e6
			b.check(rec.TailTxnsApplied == tail+1, "oltp-wire: crash image replayed %d tail txns, want %d", rec.TailTxnsApplied, tail+1)
			got, err := scanKV(eng)
			if err != nil {
				eng.Close()
				return 0, err
			}
			b.check(compareKV(got, workers) == 0, "oltp-wire: acked durable commits missing after crash recovery")
		}
		if err := eng.Close(); err != nil {
			return 0, err
		}
		_ = os.RemoveAll(img)
	}
	return median(times), nil
}

// kvCrashTail commits n single-row updates round-robin over the live keys
// and then one durable update; its acknowledgement covers the whole tail.
func kvCrashTail(eng *mainline.Engine, workers []*kvWorker, n int) error {
	tbl := eng.Table(kvTable)
	idx := tbl.Index(kvIndex)
	row, err := tbl.NewRowFor("v", "ver")
	if err != nil {
		return err
	}
	pos := make([]int, len(workers))
	for i := 0; i <= n; i++ {
		w := workers[i%len(workers)]
		off := pos[w.id]
		for !w.oracle[off].live {
			off = (off + 1) % len(w.oracle)
		}
		pos[w.id] = (off + 1) % len(w.oracle)
		e := w.oracle[off]
		next := kvEntry{v: int64(i), ver: e.ver + 1, live: true}
		var opts []mainline.TxnOption
		if i == n {
			opts = append(opts, mainline.Durable())
		}
		tx, err := eng.Begin(opts...)
		if err != nil {
			return err
		}
		slot, ok, err := tx.GetBy(idx, nil, w.key(off))
		if err != nil || !ok {
			_ = tx.Abort()
			return fmt.Errorf("crash tail: key %d not found (%v)", w.key(off), err)
		}
		row.Reset()
		_ = row.Set("v", next.v)
		_ = row.Set("ver", next.ver)
		if err := tbl.Update(tx, slot, row); err != nil {
			_ = tx.Abort()
			return err
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
		w.oracle[off] = next
	}
	return nil
}
