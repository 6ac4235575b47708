package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the export-frozen child process,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(exportClientEnv); spec != "" {
		if err := exportClientMain(spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMetricDefsMatchBenchmarkJSON keeps BENCHMARK.json in step with the
// metrics perfbench prints.
func TestMetricDefsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, want []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, perfbench %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", e2eMetrics, spec.EndToEnd)
	compare("per_layer", layerMetrics, spec.PerLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// mustBeSet lists, per workload, per-layer metrics the traced run must
// measure as non-zero: the mechanisms the workload exists to exercise.
var mustBeSet = map[string][]string{
	"oltp-wire": {
		"server.commit_rtt_us_p50", "server.requests_per_txn", "wal.sync_p50_us", "wal.txns_per_sync",
		"checkpoint.count", "checkpoint.recovery_tail_txns", "index.lookup_p50_us", "tier.evictions",
		"tier.rethaws", "e2e.restart_s", "e2e.stored_bytes_per_user_byte", "trace.spans", "host.slowdown",
		// the export-frozen phases of oltp-wire's traced run
		"catalog.blocks_zero_copy", "tier.fetches_per_export", "e2e.export_rows_per_s", "e2e.agg_p50_ms",
	},
	"tpcc-embedded": {
		"txn.commit_critical_p50_us", "wal.sync_p50_us", "gc.pass_p50_us",
		"transform.frozen_block_fraction", "e2e.txn_per_s", "trace.spans", "host.slowdown",
	},
	"export-frozen": {
		"catalog.blocks_zero_copy", "exec.query_p50_ms", "tier.evictions", "tier.fetches_per_export",
		"tier.cache_lookups_per_row", "arrow.ipc_bytes_per_row", "server.doget_consume_s",
		"e2e.export_rows_per_s", "e2e.cold_export_rows_per_s", "e2e.agg_p50_ms", "trace.spans", "host.slowdown",
	},
}

// rpcSumTolerance bounds how far the mean per-RPC round trips of an
// oltp-wire transaction may fall short of its mean duration: the rest is
// client-side bookkeeping between calls.
const rpcSumTolerance = 0.10

// TestSmoke runs every workload at the tiny scale, untraced and traced,
// and checks that every output check passes and every metric prints with
// its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			b := newBench(name, 7, time.Second, trace, tinyScale)
			if err := b.run(t.TempDir()); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(b.failures) > 0 {
				t.Fatalf("%s trace=%v: output checks failed: %v", name, trace, b.failures)
			}
			line, err := resultLine(b)
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			defs := e2eMetrics
			if trace {
				defs = layerMetrics
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: result %s", name, trace, line)
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if !trace {
				continue
			}
			for _, k := range mustBeSet[name] {
				if res.Metrics[k].Value <= 0 {
					t.Errorf("%s traced: %s = %v, want > 0", name, k, res.Metrics[k].Value)
				}
			}
			if name == "oltp-wire" {
				share := res.Metrics["server.rpc_sum_over_txn"].Value
				if share < 1-rpcSumTolerance || share > 1 {
					t.Errorf("oltp-wire traced: per-RPC means sum to %.3f of the mean transaction, want within %.0f%%",
						share, 100*rpcSumTolerance)
				}
			}
		}
	}
}
