// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload from a single process and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the gated end-to-end metrics; with
// -trace 1 they are the per-layer metrics of a separate traced run. See
// README.md for the workloads, the metric definitions and the
// layer → metric → workload map.
//
//	go build -o perfbench . && ./perfbench --workload oltp-wire --seed 1 --seconds 15 --trace 0
//
// run.py builds this package from the enclosing checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. better is "higher" or "lower".
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are the gated end-to-end metrics every workload reports with
// -trace 0. Each has one definition per workload (README.md):
//
//	throughput_per_s  committed txn/s (OLTP workloads) | rows/s of resident DoGet (export-frozen)
//	latency_p50_us    per-transaction latency (OLTP) | full-table DoGet latency (export-frozen)
//	cpu_us_per_op     CPU time of the benchmark's processes per transaction | per resident DoGet
//
// The times and rates among them are scaled to the reference host's speed
// by the calibration taken while they were measured (calib.go); the human
// lines print them as measured too.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"mem_bytes_per_user_byte", "ratio", "lower"},
}

// workloads maps -workload names to their implementations.
var workloads = map[string]func(*bench) error{
	"oltp-wire":     runOLTPWire,
	"tpcc-embedded": runTPCC,
	"export-frozen": runExport,
}

// bench is one run's configuration and accumulated results.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // this run's private data directory, removed at exit
	sc       scale

	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	failures          []string // failed output checks
	traces            *traceSet
	phases            *tracer // phase spans of a traced run
	calib             *calibration
	setups, setupsRef []float64 // set-up seconds, measured and at the reference speed
}

// span records a completed phase span (setup, checkpoint, open, freeze,
// evict, consistency check) in a traced run; a no-op otherwise.
func (b *bench) span(name string, start time.Time) {
	if b.traces == nil {
		return
	}
	if b.phases == nil {
		b.phases = b.traces.tracer()
	}
	i := b.phases.begin(name, -1, 0)
	b.phases.spans[i].Start = int64(start.Sub(b.phases.t0))
	b.phases.end(i)
}

// timeSetup runs one set-up with the host calibrated (calib.go) and
// records its time as measured and scaled to the reference host.
func (b *bench) timeSetup(setup func() error) error {
	host := b.calib.start()
	t0 := time.Now()
	err := setup()
	d := time.Since(t0).Seconds()
	slowdown := host.slowdown()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	b.span("setup", t0)
	b.setups = append(b.setups, d)
	b.setupsRef = append(b.setupsRef, d/slowdown)
	return nil
}

// recordSetup stores setup_s, the median set-up time at the reference
// host's speed.
func (b *bench) recordSetup() {
	b.e2e["setup_s"] = median(b.setupsRef)
	b.layer["e2e.setup_s"] = median(b.setups)
	b.report("setup_s", "s", median(b.setups))
	b.report("setup_s_at_ref", "s", b.e2e["setup_s"])
}

// check records a failed output check; a failed check fails the run.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		b.failures = append(b.failures, msg)
		fmt.Printf("CHECK FAILED: %s\n", msg)
	}
}

// report prints one human-readable metric line (names follow README.md,
// including metrics that are not gated).
func (b *bench) report(name, unit string, v float64) {
	fmt.Printf("  %-32s %16.4f %s\n", name, v, unit)
}

// measureWindow returns the given share of --seconds.
func (b *bench) measureWindow(share float64) time.Duration {
	return time.Duration(float64(b.seconds) * share)
}

func main() {
	if spec := os.Getenv(exportClientEnv); spec != "" {
		if err := exportClientMain(spec); err != nil {
			fatalf("export client: %v", err)
		}
		return
	}
	workload := flag.String("workload", "", "workload: oltp-wire | tpcc-embedded | export-frozen")
	seed := flag.Int64("seed", 1, "input seed (same seed, same inputs)")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: gated end-to-end metrics; 1: traced run with per-layer metrics")
	dir := flag.String("dir", ".bench_build/run", "parent of the run's private data directory")
	traceOut := flag.String("trace-out", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fatalf("unknown -workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("need -seconds > 0 and -trace 0|1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	b := newBench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, fullScale)
	if err := b.run(*dir); err != nil {
		fatalf("%s: %v", b.workload, err)
	}
	if b.trace {
		path, err := b.traces.write(*traceOut, b.workload, b.seed)
		if err != nil {
			fatalf("writing spans: %v", err)
		}
		fmt.Printf("spans: %d written to %s\n", b.traces.count(), path)
	}
	printResult(b)
	if len(b.failures) > 0 {
		os.Exit(1)
	}
}

func newBench(workload string, seed int64, seconds time.Duration, trace bool, sc scale) *bench {
	b := &bench{
		workload: workload,
		seed:     seed,
		seconds:  seconds,
		trace:    trace,
		sc:       sc,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		calib:    newCalibration(),
	}
	if trace {
		b.traces = newTraceSet()
	}
	return b
}

// run executes the workload in a private directory under parent and
// removes the directory afterwards.
func (b *bench) run(parent string) error {
	b.dir = filepath.Join(parent, fmt.Sprintf("%s-%d", b.workload, os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.dir)
	printEnv(b)
	return workloads[b.workload](b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// printEnv records the environment every result depends on.
func printEnv(b *bench) {
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s git=%s seed=%d workload=%s seconds=%.3f trace=%v scale=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitSHA(), b.seed, b.workload,
		b.seconds.Seconds(), b.trace, b.sc.name)
	fmt.Printf("env: data dir %s on %s; flush policy: durable commits, one WAL write per commit group, no SyncDelay, "+
		"device sync skipped as on tmpfs; latencies are this host's, not a storage device's\n", b.dir, fsType(b.dir))
}

// printResult prints the final JSON line.
func printResult(b *bench) {
	out, err := resultLine(b)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

// result is the final line's shape.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine encodes the run's result: the end-to-end metrics, or with
// -trace 1 the per-layer ones. An end-to-end metric the workload did not
// measure fails the run.
func resultLine(b *bench) ([]byte, error) {
	metrics := map[string]metricValue{}
	defs, src := e2eMetrics, b.e2e
	if b.trace {
		defs, src = layerMetrics, b.layer
	}
	var missing []string
	for _, d := range defs {
		v, ok := src[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		metrics[d.name] = metricValue{v, d.unit}
	}
	if len(missing) > 0 && !b.trace {
		b.check(false, "metrics not measured: %s", strings.Join(missing, ","))
	}
	return json.Marshal(result{len(b.failures) == 0, b.attempted, b.failed, metrics})
}

// gitSHA reads HEAD from .git in the working directory (the checkout
// root; nothing outside the checkout is read), "unknown" when the checkout
// is not a git repository.
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	after, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(".git", after))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
