package chbench

import (
	"testing"

	"mainline/internal/raceflag"
)

// TestHybridRun drives the full hybrid workload at test scale: TPC-C
// terminals committing throughout, verified parallel aggregations and
// joins interleaved. The oracle checks inside Run are the assertion — a
// returned error means an analytical snapshot diverged from the
// per-slot Select truth.
func TestHybridRun(t *testing.T) {
	// TPC-C terminals' in-place update protocol is deliberately racy at
	// tuple byte level (torn reads repair through the version chain — the
	// same reason internal/workload/tpcc is excluded from the CI race job).
	// The race-clean phased HTAP aggregation stress lives in internal/exec.
	if raceflag.Enabled {
		t.Skip("TPC-C terminals are deliberately racy at tuple byte level")
	}
	cfg := DefaultConfig()
	cfg.Queries = 6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != cfg.Queries {
		t.Fatalf("completed %d queries, want %d", res.Queries, cfg.Queries)
	}
	if res.TPCC.Total() == 0 {
		t.Fatal("no transactional work committed — the run was not hybrid")
	}
	// Each pass is one aggregation plus one join.
	if res.Exec.Queries != 2*int64(cfg.Queries) {
		t.Fatalf("exec counted %d queries, want %d", res.Exec.Queries, 2*cfg.Queries)
	}
	if res.Exec.MorselsDispatched == 0 || res.Exec.RowsAggregated == 0 {
		t.Fatalf("operator counters not populated: %+v", res.Exec)
	}
	if res.Exec.JoinBuildRows == 0 || res.Exec.JoinProbeRows == 0 {
		t.Fatalf("join counters not populated: %+v", res.Exec)
	}
	if res.QueriesPerSec <= 0 {
		t.Fatal("rate not computed")
	}
}
