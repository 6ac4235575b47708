package mainline_test

// One testing.B benchmark per reproduced figure (paper §6). These run the
// same harnesses as cmd/mainline-bench at reduced scale so `go test
// -bench=.` finishes in minutes; use the CLI for paper-scale sweeps.

import (
	"fmt"
	"testing"
	"time"

	"mainline"
	"mainline/internal/bench"
	"mainline/internal/raceflag"
	"mainline/internal/workload/tpcc"
)

// BenchmarkFig01DataTransformCost measures the three Figure 1 export paths
// end to end (in-memory Arrow, CSV dump+parse, row wire protocol).
func BenchmarkFig01DataTransformCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig1(20000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t.Print(benchWriter{b})
		}
	}
}

// BenchmarkFig10TPCCThroughput runs the TPC-C sweep (Figure 10) with the
// three transformation configurations.
func BenchmarkFig10TPCCThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultFig10Config()
		cfg.Workers = []int{1, 2, 4}
		cfg.Duration = 300 * time.Millisecond
		t, err := bench.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t.Print(benchWriter{b})
		}
	}
}

// BenchmarkFig11RowVsColumn measures raw insert/update speed for the
// simulated row store vs the columnar layout (Figure 11).
func BenchmarkFig11RowVsColumn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig11([]int{1, 8, 32, 64}, 40000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t.Print(benchWriter{b})
		}
	}
}

// BenchmarkFig12Transformation measures the four block-transformation
// algorithms across emptiness levels (Figure 12a), including the phase
// breakdown (12b).
func BenchmarkFig12Transformation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig12(bench.VariantMixed, 4, 0, []int{0, 5, 20, 60})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res.Table.Print(benchWriter{b})
		}
	}
}

// BenchmarkFig12FixedVsVarlen runs the layout variants (Figures 12c/12d).
func BenchmarkFig12FixedVsVarlen(b *testing.B) {
	for _, variant := range []bench.LayoutVariant{bench.VariantFixed, bench.VariantVarlen} {
		b.Run(variant.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Fig12(variant, 4, 0, []int{5, 40}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13WriteAmplification counts tuple movements for snapshot vs
// approximate vs optimal compaction (Figure 13).
func BenchmarkFig13WriteAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig13(bench.VariantMixed, 8, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t.Print(benchWriter{b})
		}
	}
}

// BenchmarkFig14CompactionGroupSize sweeps group sizes (Figure 14).
func BenchmarkFig14CompactionGroupSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig14(bench.VariantMixed, 8, 0, []int{1, 2, 4, 8}, []int{5, 20, 60})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t.Print(benchWriter{b})
		}
	}
}

// BenchmarkFig15DataExport measures the four export mechanisms against
// frozen fractions (Figure 15).
func BenchmarkFig15DataExport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Fig15(20000, []int{0, 50, 100})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t.Print(benchWriter{b})
		}
	}
}

// BenchmarkCommitPipeline sweeps the parallel commit pipeline: TPC-C
// terminals issuing durable commits against the group-commit WAL, 1→8
// workers. txns/fsync is the achieved group size; the speedup column is
// the pipeline's scaling (I/O amortization, so it shows even on one core).
func BenchmarkCommitPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultGroupCommitConfig()
		cfg.Duration = 500 * time.Millisecond
		t, _, err := bench.GroupCommit(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t.Print(benchWriter{b})
		}
	}
}

// TestCommitPipelineScaling asserts the headline property of the parallel
// commit pipeline: aggregate durable-commit throughput at 4 workers is at
// least 2x the 1-worker figure (groups amortize the sync cost). The probe
// uses the emulated-latency sink so the result does not depend on the
// host's fsync speed.
func TestCommitPipelineScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent scaling probe")
	}
	// Instrumentation overhead makes a small host CPU-bound long before
	// the emulated sync latency matters.
	if raceflag.Enabled {
		t.Skip("race-detector overhead makes the sweep CPU-bound")
	}
	cfg := bench.DefaultGroupCommitConfig()
	cfg.Workers = []int{1, 4}
	cfg.Duration = time.Second
	_, pts, err := bench.GroupCommit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, at4 := pts[0].TxnPerSec, pts[1].TxnPerSec
	t.Logf("1 worker: %.0f txn/s, 4 workers: %.0f txn/s (%.1fx, group size %.1f)",
		base, at4, at4/base, pts[1].GroupSize)
	if at4 < 2*base {
		t.Fatalf("4-worker throughput %.0f < 2x 1-worker %.0f", at4, base)
	}
}

// BenchmarkCheckpoint measures one full checkpoint (snapshot scan, Arrow
// IPC write, manifest install, WAL truncation) over a populated table.
func BenchmarkCheckpoint(b *testing.B) {
	dir := b.TempDir()
	eng, err := mainline.Open(mainline.WithDataDir(dir))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	tbl, err := eng.CreateTable("t", mainline.NewSchema(
		mainline.Field{Name: "id", Type: mainline.INT64},
		mainline.Field{Name: "payload", Type: mainline.STRING},
	))
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Update(func(tx *mainline.Txn) error {
		row := tbl.NewRow()
		for i := 0; i < 20000; i++ {
			row.Reset()
			row.SetInt64(0, int64(i))
			row.SetVarlen(1, []byte(fmt.Sprintf("checkpoint-payload-%d", i)))
			if _, err := tbl.Insert(tx, row); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	eng.FlushLog()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		info, err := eng.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		bytes = info.BytesWritten
	}
	b.SetBytes(bytes)
}

// BenchmarkTPCCNewOrder micro-measures the New-Order profile alone.
func BenchmarkTPCCNewOrder(b *testing.B) {
	eng, err := mainline.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	adm := eng.Admin()
	db, err := tpcc.NewDatabase(adm.TxnManager(), adm.Catalog(), tpcc.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	p, err := tpcc.Load(db, 42)
	if err != nil {
		b.Fatal(err)
	}
	wk := tpcc.NewWorker(db, p, 1, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wk.NewOrder(); err != nil && err != tpcc.ErrUserAbort {
			b.Fatal(err)
		}
	}
}

// TestTPCCNewOrderAllocs holds New-Order (the BenchmarkTPCCNewOrder loop)
// to an allocation budget. Most of what remains is the profile's own
// rows and keys and the engine's before-image deltas.
func TestTPCCNewOrderAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	if testing.Short() {
		t.Skip("loads a TPC-C warehouse")
	}
	eng, err := mainline.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	adm := eng.Admin()
	db, err := tpcc.NewDatabase(adm.TxnManager(), adm.Catalog(), tpcc.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := tpcc.Load(db, 42)
	if err != nil {
		t.Fatal(err)
	}
	wk := tpcc.NewWorker(db, p, 1, 7)
	allocs := testing.AllocsPerRun(300, func() {
		if err := wk.NewOrder(); err != nil && err != tpcc.ErrUserAbort {
			t.Fatal(err)
		}
	})
	t.Logf("New-Order: %.0f allocations per transaction", allocs)
	if allocs > 120 {
		t.Fatalf("New-Order allocates %.0f objects per transaction, want <= 120", allocs)
	}
}

// benchWriter routes table output through b.Logf so it shows only with -v.
type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Logf("%s", p)
	return len(p), nil
}
