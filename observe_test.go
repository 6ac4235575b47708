package mainline

import (
	"path/filepath"
	"testing"
	"time"
)

// TestStatsLatencyPopulated drives a durable workload through a data
// directory and asserts every published distribution the subsystems feed
// actually accumulated samples — the engine-level contract behind the
// /metrics exposition.
func TestStatsLatencyPopulated(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(
		WithDataDir(filepath.Join(dir, "data")),
		WithBackground(),
		WithSlowOpThreshold(time.Nanosecond), // capture everything
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	tbl, err := eng.CreateTable("t", NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "v", Type: INT64},
	))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := tbl.CreateIndex("by_id", "id")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tx, err := eng.Begin(Durable())
		if err != nil {
			t.Fatal(err)
		}
		row, err := tbl.NewRowFor("id", "v")
		if err != nil {
			t.Fatal(err)
		}
		row.Set("id", int64(i))
		row.Set("v", int64(i*i))
		if _, err := tbl.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.View(func(tx *Txn) error {
		_, _, err := tx.GetBy(idx, nil, int64(7))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	s := eng.Stats()
	checks := []struct {
		name string
		h    HistSnapshot
	}{
		{"Commit", s.Latency.Commit},
		{"CommitCritical", s.Latency.CommitCritical},
		{"WALSync", s.Latency.WALSync},
		{"WALGroupTxns", s.Latency.WALGroupTxns},
		{"WALGroupBytes", s.Latency.WALGroupBytes},
		{"Checkpoint", s.Latency.Checkpoint},
		{"CheckpointTable", s.Latency.CheckpointTable},
		{"IndexLookup", s.Latency.IndexLookup},
	}
	for _, c := range checks {
		if c.h.Count == 0 {
			t.Errorf("Stats().Latency.%s empty after durable workload", c.name)
		}
		if p50, p99 := c.h.Quantile(0.50), c.h.Quantile(0.99); p99 < p50 {
			t.Errorf("%s: p99 %d < p50 %d", c.name, p99, p50)
		}
	}
	if s.Latency.Commit.Count < 50 {
		t.Errorf("Commit count %d, want >= 50", s.Latency.Commit.Count)
	}
	if s.Duty.WALFlush.Runs == 0 {
		t.Errorf("WAL flush duty never ran")
	}
	if s.Duty.Checkpoint.Runs == 0 {
		t.Errorf("checkpoint duty never ran")
	}

	// Slow-op plumbing: 1ns threshold captures every commit, the ring
	// returns them newest first.
	ops := eng.SlowOps()
	if len(ops) == 0 {
		t.Fatal("no slow ops at 1ns threshold")
	}
	var commitSpans int
	for _, op := range ops {
		if op.Kind == "commit" {
			commitSpans++
			if len(op.Phases) == 0 {
				t.Error("commit span without phases")
			}
		}
	}
	if commitSpans == 0 {
		t.Error("no commit spans in ring")
	}

	h := eng.Health()
	if h.LastCheckpointAge < 0 {
		t.Errorf("LastCheckpointAge %v after explicit checkpoint", h.LastCheckpointAge)
	}

	// Raising the threshold stops capture.
	eng.SetSlowOpThreshold(time.Hour)
	before := eng.Health().SlowOps
	if err := eng.Update(func(tx *Txn) error {
		row, err := tbl.NewRowFor("id", "v")
		if err != nil {
			return err
		}
		row.Set("id", int64(1000))
		row.Set("v", int64(0))
		_, err = tbl.Insert(tx, row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if after := eng.Health().SlowOps; after != before {
		t.Errorf("capture count moved %d -> %d with 1h threshold", before, after)
	}
}

// TestHealthLagWithoutCheckpoint: a data-directory engine with commits
// and no checkpoint has all of its log un-truncated, so the truncation
// lag runs from ts 0; a checkpoint then shortens it.
func TestHealthLagWithoutCheckpoint(t *testing.T) {
	eng, err := Open(WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tbl, err := eng.CreateTable("t", NewSchema(Field{Name: "id", Type: INT64}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := eng.Update(func(tx *Txn) error {
			row := tbl.NewRow()
			row.SetInt64(0, int64(i))
			_, err := tbl.Insert(tx, row)
			return err
		}, Durable()); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.Stats().Checkpoint.Taken; n != 0 {
		t.Fatalf("%d checkpoints taken; the test needs none", n)
	}
	lag := eng.Health().WALTruncationLag
	if now := eng.mgr.CurrentTime(); lag != now || lag < 10 {
		t.Fatalf("WALTruncationLag %d with no checkpoint, want the clock %d (>= 10 commits)", lag, now)
	}
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := eng.Health().WALTruncationLag; after >= lag {
		t.Fatalf("WALTruncationLag %d after a checkpoint, want below %d", after, lag)
	}
}
