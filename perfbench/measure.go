package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"mainline"
	"mainline/internal/core"
	"mainline/internal/fault"
	"mainline/internal/server"
)

// scale sizes a workload's inputs: fullScale is the benchmark's,
// tinyScale the smoke test's, small enough to run in seconds.
type scale struct {
	name string
	// setups is how many times setup runs per invocation; setup_s is the
	// median and the last setup is the one measured.
	setups int
	// warmup precedes every timed OLTP window and is excluded from it.
	warmup time.Duration

	// oltpRows are the initial keys, split across the connections. Under
	// YCSB-latest keys a block's write rate falls with the number of
	// blocks; at 200 000 keys none stayed idle long enough to be evicted
	// in a 10 s window, at 600 000 every run evicts.
	oltpRows        int
	oltpCheckpoint  time.Duration // background checkpoint interval
	oltpCold        time.Duration // idle time before the transformer freezes a block
	oltpSweepEvery  int64         // commits between eviction sweeps (a block is evicted after two)
	oltpCrashTail   int           // commits after the checkpoint in the crash image
	oltpRestarts    int           // timed Opens of the crash image
	tpccFull        bool          // spec population (tpcc.Full) vs laptop scale
	exportRows      int
	exportCacheSize int64 // block-cache budget, smaller than the table
}

var (
	fullScale = scale{
		name: "full", setups: 3, warmup: time.Second,
		oltpRows: 600_000, oltpCheckpoint: 5 * time.Second, oltpCold: 100 * time.Millisecond, oltpSweepEvery: 250,
		oltpCrashTail: 20_000, oltpRestarts: 3,
		tpccFull:   true,
		exportRows: 1_000_000, exportCacheSize: 16 << 20,
	}
	tinyScale = scale{
		name: "tiny", setups: 2, warmup: 100 * time.Millisecond,
		oltpRows: 200_000, oltpCheckpoint: 300 * time.Millisecond, oltpCold: 10 * time.Millisecond, oltpSweepEvery: 50,
		oltpCrashTail: 300, oltpRestarts: 2,
		exportRows: 30_000, exportCacheSize: 256 << 10,
	}
)

// connections is the number of load-generating clients or terminals of
// every workload: never more than the host's processors.
func connections() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// layerMetrics are the per-layer metrics of the traced run (-trace 1).
// Every workload prints all of them; a layer a workload does not exercise
// reads 0. README.md maps each to the end-to-end metric it should move.
var layerMetrics = []metricDef{
	// server (+client): client-observed round trips by request kind.
	{"server.begin_rtt_us_mean", "us", "lower"}, {"server.begin_rtt_us_p50", "us", "lower"}, {"server.begin_rtt_us_p99", "us", "lower"},
	{"server.getby_rtt_us_mean", "us", "lower"}, {"server.getby_rtt_us_p50", "us", "lower"}, {"server.getby_rtt_us_p99", "us", "lower"},
	{"server.write_rtt_us_mean", "us", "lower"}, {"server.write_rtt_us_p50", "us", "lower"}, {"server.write_rtt_us_p99", "us", "lower"},
	{"server.commit_rtt_us_mean", "us", "lower"}, {"server.commit_rtt_us_p50", "us", "lower"}, {"server.commit_rtt_us_p99", "us", "lower"},
	{"server.requests_per_txn", "count", "lower"},
	{"server.rpc_sum_over_txn", "ratio", "higher"},
	{"server.rejected", "count", "lower"},
	{"server.doget_first_batch_ms", "ms", "lower"},
	{"server.doget_wait_s", "s", "lower"},
	{"server.doget_consume_s", "s", "lower"},
	// txn
	{"txn.commit_critical_p50_us", "us", "lower"}, {"txn.commit_critical_p99_us", "us", "lower"},
	{"txn.commit_latch_wait_p99_us", "us", "lower"},
	{"txn.begin_stamp_waits", "count", "lower"},
	{"txn.abort_ratio", "ratio", "lower"},
	// wal
	{"wal.sync_p50_us", "us", "lower"}, {"wal.sync_p99_us", "us", "lower"},
	{"wal.txns_per_sync", "count", "higher"},
	{"wal.bytes_per_txn", "B", "lower"},
	{"wal.durable_wait_p50_us", "us", "lower"},
	{"wal.flush_duty", "ratio", "lower"},
	// checkpoint (+manifestlog)
	{"checkpoint.count", "count", "higher"},
	{"checkpoint.duration_p50_ms", "ms", "lower"},
	{"checkpoint.bytes_per_user_byte", "ratio", "lower"},
	{"checkpoint.duty", "ratio", "lower"},
	{"checkpoint.recovery_tail_txns", "count", "lower"},
	{"index.rebuild_ms", "ms", "lower"},
	// gc
	{"gc.pass_p50_us", "us", "lower"},
	{"gc.duty", "ratio", "lower"},
	{"gc.unlinked_per_txn", "count", "higher"},
	{"gc.watermark_lag_max", "count", "lower"},
	// transform
	{"transform.blocks_frozen", "count", "higher"},
	{"transform.tuples_moved", "count", "lower"},
	{"transform.preemptions_per_freeze", "ratio", "lower"},
	{"transform.duty", "ratio", "lower"},
	{"transform.frozen_block_fraction", "ratio", "higher"},
	{"transform.freeze_all_s", "s", "lower"},
	// index
	{"index.lookup_p50_us", "us", "lower"},
	{"index.slots_reverified_per_lookup", "ratio", "lower"},
	{"index.stale_filtered_ratio", "ratio", "lower"},
	// core + catalog (scan/export), per full-table DoGet
	{"core.blocks_frozen", "count", "higher"},
	{"core.blocks_versioned", "count", "lower"},
	{"core.blocks_pruned", "count", "higher"},
	{"core.tuples_emitted", "count", "lower"},
	{"catalog.blocks_zero_copy", "count", "higher"},
	{"catalog.blocks_materialized", "count", "lower"},
	// exec
	{"exec.query_p50_ms", "ms", "lower"},
	{"exec.morsels_per_query", "count", "lower"},
	{"exec.rows_per_s", "1/s", "higher"},
	{"exec.dict_fast_blocks", "count", "higher"},
	// tier (+objstore)
	{"tier.evict_all_s", "s", "lower"},
	{"tier.evictions", "count", "higher"},
	{"tier.rethaws", "count", "lower"},
	{"tier.rethaw_txn_share", "ratio", "lower"},
	{"tier.fetches_per_export", "count", "lower"},
	{"tier.bytes_fetched_per_export", "B", "lower"},
	{"tier.cache_hit_ratio", "ratio", "higher"},
	{"tier.cache_lookups_per_row", "ratio", "lower"},
	// arrow
	{"arrow.ipc_bytes_per_row", "B", "lower"},
	// Go runtime and process
	{"go.gc_cpu_fraction", "ratio", "lower"},
	{"go.gc_pause_p99_us", "us", "lower"},
	{"go.sched_latency_p99_us", "us", "lower"},
	{"go.heap_live_bytes", "B", "lower"},
	{"process.cpu_us_per_op", "us", "lower"},
	// The host's slowdown against the reference during the timed pass
	// (calib.go); the gated figures are scaled by it.
	{"host.slowdown", "ratio", "lower"},
	// End-to-end figures of the traced run that are not gated, by the
	// names the workload definitions use, as measured on this host.
	{"e2e.setup_s", "s", "lower"},
	{"e2e.txn_per_s", "1/s", "higher"},
	{"e2e.txn_p50_us", "us", "lower"},
	{"e2e.txn_p95_us", "us", "lower"},
	{"e2e.txn_p99_us", "us", "lower"},
	{"e2e.user_aborts", "count", "lower"},
	{"e2e.restart_s", "s", "lower"},
	{"e2e.stored_bytes_per_user_byte", "ratio", "lower"},
	{"e2e.export_rows_per_s", "1/s", "higher"},
	{"e2e.cold_export_rows_per_s", "1/s", "higher"},
	{"e2e.agg_p50_ms", "ms", "lower"},
	// Tracing itself.
	{"trace.spans", "count", "lower"},
	{"trace.txn_self_us_mean", "us", "lower"},
	{"trace.overhead_throughput_pct", "%", "lower"},
	{"trace.overhead_p50_pct", "%", "lower"},
}

// --- exact sample quantiles -------------------------------------------------

// samples collects exact nanosecond observations.
type samples []int64

// quantile returns the nearest-rank p-quantile in nanoseconds (0 when
// empty). It sorts s in place.
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(s[rank])
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// --- closed-loop load generation ---------------------------------------------

// outcome is how one operation ended.
type outcome int

const (
	committed outcome = iota
	failed            // rejection, error, or an abort that outlasted every retry
	userAbort         // a rollback the workload asks for; not a failure
)

// loopStats is one load generator's record of a timed pass.
type loopStats struct {
	lat        samples // latencies of committed operations in the window
	attempted  int64   // operations started in the window
	failed     int64   // operations that ended without committing
	retries    int64   // aborted tries that were retried
	committed  int64
	userAborts int64
	passOps    int64 // every operation of the pass, warm-up included
}

// driveLoop runs n closed-loop generators (each issues its next operation
// when the previous one returns) for the warm-up plus --seconds; only
// operations started inside the measured window count. once returns how
// the operation ended and how many tries it took; every try but the last
// aborted and was retried, and the operation's latency covers them all.
// The process's CPU time (every thread: load generators, server and
// background loops) is read at the window's edges, and the host is
// calibrated during the window (calib.go). poll is sampled every 50ms
// while the loop runs and its largest value returned.
func driveLoop(b *bench, n int, once func(worker int) (outcome, int), poll func() float64) (passResult, []loopStats, float64) {
	stats := make([]loopStats, n)
	start := time.Now()
	winStart := start.Add(b.sc.warmup)
	winEnd := winStart.Add(b.seconds)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(st *loopStats, i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				out, tries := once(i)
				d := time.Since(t0)
				st.passOps++
				if t0.Before(winStart) || !t0.Before(winEnd) {
					continue
				}
				st.attempted++
				st.retries += int64(tries - 1)
				switch out {
				case committed:
					st.committed++
					st.lat = append(st.lat, int64(d))
				case failed:
					st.failed++
				case userAbort:
					st.userAborts++
				}
			}
		}(&stats[i], i)
	}
	pollStop := make(chan struct{})
	pollDone := make(chan float64)
	go func() { pollDone <- pollMax(pollStop, 50*time.Millisecond, poll) }()
	time.Sleep(time.Until(winStart))
	cpu0 := processCPU()
	host := b.calib.start()
	time.Sleep(time.Until(winEnd))
	cpu := processCPU() - cpu0
	slowdown := host.slowdown()
	close(stop)
	wg.Wait()
	close(pollStop)
	peak := <-pollDone

	var done int64
	var all samples
	for _, st := range stats {
		done += st.committed
		all = append(all, st.lat...)
	}
	return passResult{
		throughput: float64(done) / b.seconds.Seconds(),
		cpuPerOp:   ratio(float64(cpu)/1e3, float64(done)),
		slowdown:   slowdown,
		p50:        all.quantile(0.50) / 1e3,
		p90:        all.quantile(0.90) / 1e3,
		p95:        all.quantile(0.95) / 1e3,
		p99:        all.quantile(0.99) / 1e3,
	}, stats, peak
}

// failures counts one generator's failed attempts by step and kind and
// keeps the first error of each.
type failures map[string]*failKind

type failKind struct {
	n     int64
	first string
}

// add records an attempt that ended in err and returns failed.
func (f failures) add(step string, err error) outcome {
	kind := "error"
	switch {
	case errors.Is(err, mainline.ErrWriteConflict):
		kind = "conflict"
	case errors.Is(err, core.ErrSlotOccupied):
		kind = "slot-occupied"
	case errors.Is(err, server.ErrServerBusy), errors.Is(err, server.ErrDeadlineExceeded):
		kind = "rejected"
	}
	key := step + "/" + kind
	if f[key] == nil {
		f[key] = &failKind{first: err.Error()}
	}
	f[key].n++
	return failed
}

// printFailures prints the generators' records merged, one line per kind.
func printFailures(all ...failures) {
	merged := failures{}
	for _, f := range all {
		for k, v := range f {
			if merged[k] == nil {
				merged[k] = &failKind{first: v.first}
			}
			merged[k].n += v.n
		}
	}
	for _, k := range sortedKeys(merged) {
		fmt.Printf("  failed %s: %d (first: %s)\n", k, merged[k].n, merged[k].first)
	}
}

// totals sums the generators' counters.
func totals(stats []loopStats) (t loopStats) {
	for _, st := range stats {
		t.attempted += st.attempted
		t.failed += st.failed
		t.retries += st.retries
		t.committed += st.committed
		t.userAborts += st.userAborts
		t.passOps += st.passOps
	}
	return t
}

// --- engine instrument deltas ------------------------------------------------

// histDelta is after minus before, bucket by bucket (histograms only grow).
func histDelta(after, before mainline.HistSnapshot) mainline.HistSnapshot {
	d := mainline.HistSnapshot{Name: after.Name, Unit: after.Unit, Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	d.Counts = append([]int64(nil), after.Counts...)
	for i, c := range before.Counts {
		if i < len(d.Counts) {
			d.Counts[i] -= c
		}
	}
	return d
}

// us converts a nanosecond histogram quantile to microseconds.
func us(h mainline.HistSnapshot, p float64) float64 { return float64(h.Quantile(p)) / 1e3 }

// dutyDelta is the busy fraction of the interval between two snapshots.
func dutyDelta(after, before mainline.DutySnapshot) float64 {
	win := after.Window - before.Window
	if win <= 0 {
		return 0
	}
	return float64(after.Busy-before.Busy) / float64(win)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// --- Go runtime ---------------------------------------------------------------

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
	"/gc/heap/live:bytes",
}

// runtimeSnap is a point-in-time read of the Go runtime metrics plus the
// process's CPU time.
type runtimeSnap struct {
	samples []metrics.Sample
	cpu     time.Duration
}

func readRuntime() runtimeSnap {
	s := runtimeSnap{samples: make([]metrics.Sample, len(runtimeNames))}
	for i, n := range runtimeNames {
		s.samples[i].Name = n
	}
	metrics.Read(s.samples)
	s.cpu = processCPU()
	return s
}

// processCPU is the user plus system CPU time so far of every thread of
// this process and of its children that have ended (the export client).
// The kernel does not count time the hypervisor gave to another guest
// (steal).
func processCPU() time.Duration {
	var self, children syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &self) != nil || syscall.Getrusage(syscall.RUSAGE_CHILDREN, &children) != nil {
		return 0
	}
	return time.Duration(self.Utime.Nano() + self.Stime.Nano() + children.Utime.Nano() + children.Stime.Nano())
}

// heapLive forces two collections and returns the live heap in bytes.
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// recordRuntime stores the Go runtime layer metrics for the interval
// [before, now], with ops operations completed in it.
func recordRuntime(b *bench, before runtimeSnap, ops float64) {
	after := readRuntime()
	f := func(i int) float64 {
		if after.samples[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return after.samples[i].Value.Float64() - before.samples[i].Value.Float64()
	}
	b.layer["go.gc_cpu_fraction"] = ratio(f(0), f(1))
	b.layer["go.gc_pause_p99_us"] = histQuantileDelta(after.samples[2], before.samples[2], 0.99) * 1e6
	b.layer["go.sched_latency_p99_us"] = histQuantileDelta(after.samples[3], before.samples[3], 0.99) * 1e6
	if after.samples[4].Value.Kind() == metrics.KindUint64 {
		b.layer["go.heap_live_bytes"] = float64(after.samples[4].Value.Uint64())
	}
	b.layer["process.cpu_us_per_op"] = ratio(float64(after.cpu-before.cpu)/1e3, ops)
}

// histQuantileDelta is the p-quantile (the bucket's upper edge, or its
// lower edge for the open last bucket) of the observations recorded
// between two reads of a cumulative runtime histogram.
func histQuantileDelta(after, before metrics.Sample, p float64) float64 {
	if after.Value.Kind() != metrics.KindFloat64Histogram || before.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	a, bh := after.Value.Float64Histogram(), before.Value.Float64Histogram()
	var total uint64
	delta := make([]uint64, len(a.Counts))
	for i := range a.Counts {
		delta[i] = a.Counts[i] - bh.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= rank {
			if hi := a.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return a.Buckets[i]
		}
	}
	return 0
}

// --- files -----------------------------------------------------------------------

// noSyncFS is the persistence layers' filesystem for every workload: real
// files under the run directory, written through the full WAL, checkpoint
// and object-store paths, with device syncs skipped as on tmpfs. The run
// directory must stay inside the checkout, which sits on a shared disk
// whose fsync latency varies with other tenants' I/O; skipping the sync
// keeps that jitter out of the measurement.
type noSyncFS struct{ fault.OS }

type noSyncFile struct{ fault.File }

func (noSyncFile) Sync() error { return nil }

func (fs noSyncFS) Create(path string) (fault.File, error) {
	f, err := fs.OS.Create(path)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (fs noSyncFS) Append(path string) (fault.File, error) {
	f, err := fs.OS.Append(path)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs-0x%x", st.Type)
}

// --- spans -----------------------------------------------------------------------

// span is one call into a layer's public function, recorded by the
// benchmark around the call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index in the same worker's spans, -1 for a root
	Txn    uint64 `json:"txn"`
	Worker int    `json:"worker"`
}

// tracer records one goroutine's spans. A nil tracer records nothing, so
// untraced runs pay one nil check per call.
type tracer struct {
	t0     time.Time
	worker int
	spans  []span
}

func (t *tracer) begin(name string, parent int32, txn uint64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Txn: txn, Worker: t.worker})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// traceSet owns every tracer of a run; spans stay in memory until write.
type traceSet struct {
	t0      time.Time
	mu      sync.Mutex
	tracers []*tracer
}

func newTraceSet() *traceSet { return &traceSet{t0: time.Now()} }

// tracer returns a new per-goroutine tracer; nil when tracing is off.
func (ts *traceSet) tracer() *tracer {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := &tracer{t0: ts.t0, worker: len(ts.tracers)}
	ts.tracers = append(ts.tracers, t)
	return t
}

// add records spans made elsewhere (another process) on ts's origin as
// one more tracer's.
func (ts *traceSet) add(spans []span) {
	if ts == nil || len(spans) == 0 {
		return
	}
	t := ts.tracer()
	for i := range spans {
		spans[i].Worker = t.worker
	}
	t.spans = spans
}

func (ts *traceSet) count() int {
	n := 0
	for _, t := range ts.tracers {
		n += len(t.spans)
	}
	return n
}

// spanStat summarizes the spans of one name.
type spanStat struct {
	Count      int     `json:"count"`
	MeanUs     float64 `json:"mean_us"`
	SelfMeanUs float64 `json:"self_mean_us"`
	durs       samples
}

// summary aggregates durations and self times (duration minus the part
// covered by child spans) per span name.
func (ts *traceSet) summary() map[string]*spanStat {
	out := map[string]*spanStat{}
	for _, t := range ts.tracers {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			st := out[s.Name]
			if st == nil {
				st = &spanStat{}
				out[s.Name] = st
			}
			d := s.End - s.Start
			st.Count++
			st.MeanUs += float64(d) / 1e3
			st.SelfMeanUs += float64(d-child[i]) / 1e3
			st.durs = append(st.durs, d)
		}
	}
	for _, st := range out {
		st.MeanUs /= float64(st.Count)
		st.SelfMeanUs /= float64(st.Count)
	}
	return out
}

// write stores every span plus the per-name summary as JSON under dir.
func (ts *traceSet) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	var all []span
	for _, t := range ts.tracers {
		all = append(all, t.spans...)
	}
	data, err := json.Marshal(struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Summary  map[string]*spanStat `json:"summary"`
		Spans    []span               `json:"spans"`
	}{workload, seed, ts.summary(), all})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
