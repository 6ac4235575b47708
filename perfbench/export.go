package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mainline"
	"mainline/client"
	"mainline/internal/server"
)

// export-frozen: a table larger than the last-level cache and than the
// block-cache budget, loaded and frozen during setup. With no background
// loops running, one client process streams full-table DoGets over
// resident frozen blocks and checksums a column; in process, Table.Aggregate runs
// a GROUP BY; then Admin().EvictAll demotes every block and the same
// DoGet streams the now-cold table through the smaller cache.

const (
	exTable  = "events"
	exGroups = 64
)

var exSchema = mainline.NewSchema(
	mainline.Field{Name: "id", Type: mainline.INT64},
	mainline.Field{Name: "grp", Type: mainline.INT64},
	mainline.Field{Name: "amount", Type: mainline.INT64},
	mainline.Field{Name: "name", Type: mainline.STRING},
)

// exExpect is the known answer for the generated table.
type exExpect struct {
	rows, amountSum, userBytes int64
	groupCount, groupSum       [exGroups]int64
}

// exRows generates the table's rows from the seed, calling fn per row.
func exRows(seed int64, n int, fn func(id, grp, amount int64, name string) error) error {
	rng := rand.New(rand.NewSource(seed))
	const letters = "abcdefghijklmnopqrstuvwxyz"
	var tag [12]byte
	for id := int64(0); id < int64(n); id++ {
		grp, amount := rng.Int63n(exGroups), rng.Int63n(1_000_000)
		tagLen := 4 + rng.Intn(len(tag)-3)
		for i := 0; i < tagLen; i++ {
			tag[i] = letters[rng.Intn(len(letters))]
		}
		if err := fn(id, grp, amount, fmt.Sprintf("customer-%09d-%s", id, tag[:tagLen])); err != nil {
			return err
		}
	}
	return nil
}

func exExpected(seed int64, n int) exExpect {
	var e exExpect
	_ = exRows(seed, n, func(_, grp, amount int64, name string) error {
		e.rows++
		e.amountSum += amount
		e.userBytes += 3*8 + int64(len(name))
		e.groupCount[grp]++
		e.groupSum[grp] += amount
		return nil
	})
	return e
}

// setupExport loads the table into a fresh engine and freezes it.
func setupExport(dir string, sc scale, seed int64) (*mainline.Engine, *mainline.Table, time.Duration, error) {
	eng, err := mainline.Open(
		mainline.WithObjectStore(filepath.Join(dir, "obj")),
		mainline.WithBlockCacheBytes(sc.exportCacheSize),
		mainline.WithFaultFS(noSyncFS{}),
	)
	if err != nil {
		return nil, nil, 0, err
	}
	tbl, err := eng.CreateTable(exTable, exSchema)
	if err != nil {
		eng.Close()
		return nil, nil, 0, err
	}
	const batch = 10_000
	tx, row := (*mainline.Txn)(nil), tbl.NewRow()
	inBatch := 0
	err = exRows(seed, sc.exportRows, func(id, grp, amount int64, name string) error {
		if tx == nil {
			var berr error
			if tx, berr = eng.Begin(); berr != nil {
				return berr
			}
		}
		row.Reset()
		_ = row.Set("id", id)
		_ = row.Set("grp", grp)
		_ = row.Set("amount", amount)
		_ = row.Set("name", name)
		if _, err := tbl.Insert(tx, row); err != nil {
			return err
		}
		if inBatch++; inBatch == batch {
			inBatch = 0
			_, err := tx.Commit()
			tx = nil
			return err
		}
		return nil
	})
	if err == nil && tx != nil {
		_, err = tx.Commit()
	}
	if err != nil {
		eng.Close()
		return nil, nil, 0, err
	}
	t0 := time.Now()
	if !eng.FreezeAll(0) {
		eng.Close()
		return nil, nil, 0, fmt.Errorf("FreezeAll left blocks unfrozen")
	}
	return eng, tbl, time.Since(t0), nil
}

// The export client runs in a child process of this binary, as a user's
// export tool would. In process, its decoded batches (55 MB a stream)
// trigger Go collections that mark the engine's whole heap: they took 42 %
// of the process's CPU and made DoGet latency bimodal, so the figures
// measured the benchmark's own garbage. The child gets one processor:
// with two each, the OS interleaved the two processes and streams took
// twice as long.

// exportClientEnv carries the exportSpec that makes the binary run as the
// export client (exportClientMain) instead of the benchmark.
const exportClientEnv = "PERFBENCH_EXPORT_CLIENT"

// exportSpec is one export phase run by the child.
type exportSpec struct {
	Addr    string  `json:"addr"`
	Name    string  `json:"name"` // span name of each stream; batches are name+".batch"
	Seconds float64 `json:"seconds"`
	Rows    int64   `json:"rows"` // every stream must have this many rows
	Sum     int64   `json:"sum"`  // and this sum of the amount column
	Trace   bool    `json:"trace"`
	T0      int64   `json:"t0_unix_ns"` // the parent's span origin
}

// exportResult is the child's record of its phase.
type exportResult struct {
	Streams    int             `json:"streams"`
	RowsPerSec float64         `json:"rows_per_s"`
	Lat        samples         `json:"lat_ns"`         // whole streams
	FirstBatch samples         `json:"first_batch_ns"` // DoGet start → first batch
	Mismatches int64           `json:"mismatches"`     // streams with a wrong row count or checksum
	Last       client.GetStats `json:"last"`
	Spans      []span          `json:"spans,omitempty"`
}

// exportClientMain runs the phase described by spec and prints its
// exportResult as JSON.
func exportClientMain(spec string) error {
	var sp exportSpec
	if err := json.Unmarshal([]byte(spec), &sp); err != nil {
		return err
	}
	c, err := client.Dial(sp.Addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var tr *tracer
	if sp.Trace {
		tr = &tracer{t0: time.Unix(0, sp.T0)}
	}
	var res exportResult
	start := time.Now()
	for res.Streams == 0 || time.Since(start).Seconds() < sp.Seconds {
		if err := doGet(c, sp, tr, &res); err != nil {
			return err
		}
		res.Streams++
	}
	res.RowsPerSec = float64(res.Streams) * float64(sp.Rows) / time.Since(start).Seconds()
	if tr != nil {
		res.Spans = tr.spans
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// doGet streams the whole table once, checksumming the amount column.
func doGet(c *client.Client, sp exportSpec, tr *tracer, res *exportResult) error {
	id := uint64(res.Streams + 1)
	root := tr.begin(sp.Name, -1, id)
	t0 := time.Now()
	var rows, sum int64
	st, err := c.DoGet(exTable, nil, nil, func(rb *mainline.RecordBatch) error {
		if rows == 0 {
			res.FirstBatch = append(res.FirstBatch, int64(time.Since(t0)))
		}
		b := tr.begin(sp.Name+".batch", root, id)
		col := rb.Column("amount")
		for i := 0; i < rb.NumRows; i++ {
			sum += col.Int64(i)
		}
		rows += int64(rb.NumRows)
		tr.end(b)
		return nil
	})
	tr.end(root)
	res.Lat = append(res.Lat, int64(time.Since(t0)))
	if err != nil {
		return fmt.Errorf("DoGet: %w", err)
	}
	if rows != sp.Rows || sum != sp.Sum || int64(st.Rows) != rows {
		res.Mismatches++
	}
	res.Last = st
	return nil
}

// runExportClient runs one export phase of d against addr in a child
// process and waits for it; with trace it adds the child's spans.
func runExportClient(b *bench, addr, name string, trace bool, d time.Duration, want exExpect) (*exportResult, error) {
	sp := exportSpec{Addr: addr, Name: name, Seconds: d.Seconds(), Rows: want.rows, Sum: want.amountSum, Trace: trace}
	if trace {
		sp.T0 = b.traces.t0.UnixNano()
	}
	spec, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), exportClientEnv+"="+string(spec), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("export client: %w", err)
	}
	var res exportResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("export client output: %w", err)
	}
	b.traces.add(res.Spans)
	return &res, nil
}

// aggPhase repeats the GROUP BY for at least d, checking each result,
// and returns the latency samples and the number of wrong results.
func aggPhase(eng *mainline.Engine, tbl *mainline.Table, want exExpect, d time.Duration, tr *tracer) (samples, int64, error) {
	q := mainline.NewQuery().GroupBy("grp").CountAll().Sum("amount")
	var lat samples
	var wrong int64
	start := time.Now()
	for len(lat) == 0 || time.Since(start) < d {
		err := eng.View(func(tx *mainline.Txn) error {
			sp := tr.begin("aggregate", -1, uint64(len(lat)))
			t0 := time.Now()
			r, err := tbl.Aggregate(tx, q)
			lat = append(lat, int64(time.Since(t0)))
			tr.end(sp)
			if err != nil {
				return err
			}
			if r.Len() != exGroups {
				wrong++
				return nil
			}
			for i := 0; i < r.Len(); i++ {
				g := r.GroupInt(i, 0)
				if g < 0 || g >= exGroups || r.Count(i, 0) != want.groupCount[g] || r.Int(i, 1) != want.groupSum[g] {
					wrong++
					return nil
				}
			}
			return nil
		})
		if err != nil {
			return nil, 0, fmt.Errorf("aggregate: %w", err)
		}
	}
	return lat, wrong, nil
}

// exportLayerMetrics are the per-layer metrics only the export phases
// measure. export-frozen is not a gated workload (README.md), so
// oltp-wire's traced run also runs its phases and reports these.
var exportLayerMetrics = []string{
	"server.doget_first_batch_ms", "server.doget_wait_s", "server.doget_consume_s",
	"core.blocks_frozen", "core.blocks_versioned", "core.blocks_pruned", "core.tuples_emitted",
	"catalog.blocks_zero_copy", "catalog.blocks_materialized",
	"exec.query_p50_ms", "exec.morsels_per_query", "exec.rows_per_s", "exec.dict_fast_blocks",
	"transform.freeze_all_s", "tier.evict_all_s", "tier.fetches_per_export", "tier.bytes_fetched_per_export",
	"tier.cache_lookups_per_row", "arrow.ipc_bytes_per_row",
	"e2e.export_rows_per_s", "e2e.cold_export_rows_per_s", "e2e.agg_p50_ms",
}

// runExportLayers runs the export-frozen phases, with one set-up and a quarter
// of --seconds, inside b's traced run, and copies their layer metrics and
// failed output checks into b.
func runExportLayers(b *bench) error {
	sc := b.sc
	sc.setups = 1
	sub := newBench("export-frozen", b.seed, b.seconds/4, true, sc)
	sub.traces, sub.dir = b.traces, filepath.Join(b.dir, "export-frozen")
	if err := runExport(sub); err != nil {
		return fmt.Errorf("export-frozen phases: %w", err)
	}
	for _, name := range exportLayerMetrics {
		b.layer[name] = sub.layer[name]
	}
	b.failures = append(b.failures, sub.failures...)
	return nil
}

// Shares of --seconds given to the resident-export, GROUP BY and cold
// phases. The gated metrics come from the resident export, which gets the
// most time; a GROUP BY's latency flips between modes from run to run on
// a shared 2-vCPU host (the query waits for whichever worker the host
// delays), so it is reported ungated.
const (
	exResidentShare = 0.55
	exAggShare      = 0.20
	exColdShare     = 0.25
)

func runExport(b *bench) error {
	want := exExpected(b.seed, b.sc.exportRows)

	var eng *mainline.Engine
	var tbl *mainline.Table
	var freeze time.Duration
	dir := ""
	for i := 0; i < b.sc.setups; i++ {
		if eng != nil {
			eng.Close()
			_ = os.RemoveAll(dir)
		}
		dir = filepath.Join(b.dir, fmt.Sprintf("setup-%d", i))
		if err := b.timeSetup(func() (err error) {
			eng, tbl, freeze, err = setupExport(dir, b.sc, b.seed)
			return err
		}); err != nil {
			return err
		}
	}
	defer eng.Close()
	b.recordSetup()
	b.layer["transform.freeze_all_s"] = freeze.Seconds()
	b.e2e["mem_bytes_per_user_byte"] = heapLive() / float64(want.userBytes)

	srv := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Listen()
	if err != nil {
		return err
	}
	defer srv.Close()

	// Resident export and GROUP BY; a traced run repeats both traced and
	// reports the difference as tracing overhead.
	var resident *exportResult
	var mismatches int64
	var agg samples
	var wrongAgg int64
	var before, after mainline.Stats
	var rtBefore runtimeSnap
	var untraced passResult
	var tr *tracer
	for pass := 0; pass < 1+btoi(b.trace); pass++ {
		if pass == 1 {
			tr = b.traces.tracer()
		}
		runtime.GC()
		before, rtBefore = eng.Stats(), readRuntime()
		host, cpu0 := b.calib.start(), processCPU()
		resident, err = runExportClient(b, addr, "doget", pass == 1, b.measureWindow(exResidentShare), want)
		cpu, slowdown := processCPU()-cpu0, host.slowdown()
		if err != nil {
			return err
		}
		mismatches += resident.Mismatches
		scanAfterExport := eng.Stats().Scan
		runtime.GC()
		var wrong int64
		if agg, wrong, err = aggPhase(eng, tbl, want, b.measureWindow(exAggShare), tr); err != nil {
			return err
		}
		wrongAgg += wrong
		after = eng.Stats()
		res := passResult{throughput: resident.RowsPerSec, p50: resident.Lat.quantile(0.50) / 1e3,
			p90: resident.Lat.quantile(0.90) / 1e3, slowdown: slowdown,
			cpuPerOp: float64(cpu) / 1e3 / float64(resident.Streams)}
		if pass == 0 {
			untraced = res
		} else {
			recordOverhead(b, untraced, res)
		}
		per := float64(resident.Streams)
		b.layer["core.blocks_frozen"] = float64(scanAfterExport.BlocksFrozen-before.Scan.BlocksFrozen) / per
		b.layer["core.blocks_versioned"] = float64(scanAfterExport.BlocksVersioned-before.Scan.BlocksVersioned) / per
		b.layer["core.blocks_pruned"] = float64(scanAfterExport.BlocksPruned-before.Scan.BlocksPruned) / per
		b.layer["core.tuples_emitted"] = float64(scanAfterExport.TuplesEmitted-before.Scan.TuplesEmitted) / per
	}
	ops := float64(resident.Streams + len(agg))
	b.attempted = int64(ops)
	b.e2e["throughput_per_s"] = untraced.throughput * untraced.slowdown
	b.e2e["latency_p50_us"] = untraced.p50 / untraced.slowdown
	b.e2e["cpu_us_per_op"] = untraced.cpuPerOp / untraced.slowdown
	b.layer["host.slowdown"] = untraced.slowdown
	recordEngineLayers(b, before, after, 0)
	recordRuntime(b, rtBefore, ops)
	b.layer["e2e.export_rows_per_s"] = resident.RowsPerSec
	b.layer["e2e.agg_p50_ms"] = agg.quantile(0.50) / 1e6
	b.layer["server.doget_first_batch_ms"] = resident.FirstBatch.quantile(0.50) / 1e6
	b.layer["catalog.blocks_zero_copy"] = float64(resident.Last.Frozen)
	b.layer["catalog.blocks_materialized"] = float64(resident.Last.Materialized)
	b.layer["arrow.ipc_bytes_per_row"] = ratio(float64(resident.Last.Bytes), float64(resident.Last.Rows))
	states := eng.BlockStates(exTable)
	b.layer["transform.frozen_block_fraction"] = ratio(float64(states[3]), float64(states[0]+states[1]+states[2]+states[3]))

	// Cold phase: every block evicted, the cache smaller than the table.
	t0 := time.Now()
	evicted, err := eng.Admin().EvictAll()
	if err != nil {
		return fmt.Errorf("EvictAll: %w", err)
	}
	b.layer["tier.evict_all_s"] = time.Since(t0).Seconds()
	b.span("evict_all", t0)
	runtime.GC()
	coldBefore := eng.Stats()
	cold, err := runExportClient(b, addr, "doget_cold", b.trace, b.measureWindow(exColdShare), want)
	if err != nil {
		return err
	}
	mismatches += cold.Mismatches
	coldAfter := eng.Stats().Tier
	b.attempted += int64(cold.Streams)
	per := float64(cold.Streams)
	hits := float64(coldAfter.CacheHits - coldBefore.Tier.CacheHits)
	misses := float64(coldAfter.CacheMisses - coldBefore.Tier.CacheMisses)
	b.layer["e2e.cold_export_rows_per_s"] = cold.RowsPerSec
	b.layer["tier.evictions"] = float64(evicted)
	b.layer["tier.fetches_per_export"] = float64(coldAfter.Fetches-coldBefore.Tier.Fetches) / per
	b.layer["tier.bytes_fetched_per_export"] = float64(coldAfter.BytesFetched-coldBefore.Tier.BytesFetched) / per
	b.layer["tier.cache_hit_ratio"] = ratio(hits, hits+misses)
	b.layer["tier.cache_lookups_per_row"] = (hits + misses) / (per * float64(want.rows))
	if b.trace {
		sum := b.traces.summary()
		if d, cb := sum["doget"], sum["doget.batch"]; d != nil && cb != nil {
			b.layer["server.doget_wait_s"] = d.SelfMeanUs / 1e6
			b.layer["server.doget_consume_s"] = cb.MeanUs * float64(cb.Count) / float64(d.Count) / 1e6
		}
		b.layer["trace.spans"] = float64(b.traces.count())
	}

	b.check(mismatches == 0, "export-frozen: %d DoGet streams had a wrong row count or checksum", mismatches)
	b.check(wrongAgg == 0, "export-frozen: %d GROUP BY results differed from the known answer", wrongAgg)
	b.check(resident.Last.Frozen > 0, "export-frozen: no block left zero-copy in the resident phase")
	b.check(evicted > 0 && evicted == states[3], "export-frozen: EvictAll demoted %d of %d frozen blocks", evicted, states[3])
	b.check(coldAfter.Fetches > coldBefore.Tier.Fetches, "export-frozen: cold phase fetched nothing from the object store")
	b.failed = mismatches + wrongAgg

	fmt.Printf("export-frozen: %d rows, %d user bytes, cache budget %d bytes, %d resident + %d cold DoGets, %d GROUP BYs\n",
		want.rows, want.userBytes, b.sc.exportCacheSize, resident.Streams, cold.Streams, len(agg))
	b.report("export_rows_per_s", "rows/s", resident.RowsPerSec)
	b.report("host_slowdown", "ratio", untraced.slowdown)
	b.report("doget_p50_ms", "ms", untraced.p50/1e3)
	b.report("doget_p90_ms", "ms", untraced.p90/1e3)
	b.report("cpu_ms_per_doget", "ms", untraced.cpuPerOp/1e3)
	b.report("doget_p95_ms", "ms", resident.Lat.quantile(0.95)/1e6)
	b.report("cold_export_rows_per_s", "rows/s", cold.RowsPerSec)
	b.report("agg_p50_ms", "ms", agg.quantile(0.50)/1e6)
	b.report("agg_p95_ms", "ms", agg.quantile(0.95)/1e6)
	b.report("ipc_bytes_per_row", "B", b.layer["arrow.ipc_bytes_per_row"])
	b.report("cache_lookups_per_cold_row", "ratio", b.layer["tier.cache_lookups_per_row"])
	return nil
}
