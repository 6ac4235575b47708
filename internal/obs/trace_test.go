package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceRingCapture(t *testing.T) {
	r := NewTraceRing(4, 10*time.Millisecond)
	if r.Exceeds(5 * time.Millisecond) {
		t.Fatal("below threshold captured")
	}
	if !r.Exceeds(10 * time.Millisecond) {
		t.Fatal("at threshold not captured")
	}
	for i := 0; i < 6; i++ {
		r.Observe(Span{Kind: "op", TxnID: uint64(i), DurNs: int64(i)})
	}
	if r.Captured() != 6 {
		t.Fatalf("captured %d, want 6", r.Captured())
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	// Newest first: txn ids 5,4,3,2.
	for i, sp := range got {
		if want := uint64(5 - i); sp.TxnID != want {
			t.Fatalf("snapshot[%d].TxnID = %d, want %d", i, sp.TxnID, want)
		}
	}
	r.SetThreshold(time.Nanosecond)
	if !r.Exceeds(2 * time.Nanosecond) {
		t.Fatal("threshold update not applied")
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(16, 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Observe(Span{Kind: "w", TxnID: uint64(id)})
				_ = r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if r.Captured() != 4000 {
		t.Fatalf("captured %d, want 4000", r.Captured())
	}
}

func TestRegistryDedupe(t *testing.T) {
	reg := NewRegistry(8, time.Second)
	a := reg.NewHistogram("m", "", "seconds", `kind="x"`)
	b := reg.NewHistogram("m", "", "seconds", `kind="x"`)
	c := reg.NewHistogram("m", "", "seconds", `kind="y"`)
	if a != b {
		t.Fatal("same name+labels returned distinct histograms")
	}
	if a == c {
		t.Fatal("distinct labels returned same histogram")
	}
	if d1, d2 := reg.NewDuty("gc"), reg.NewDuty("gc"); d1 != d2 {
		t.Fatal("duty not deduped")
	}
	if len(reg.Histograms()) != 2 || len(reg.Duties()) != 1 {
		t.Fatalf("registry sizes: %d hists, %d duties", len(reg.Histograms()), len(reg.Duties()))
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry(8, 100*time.Millisecond)
	h := reg.NewHistogram("mainline_test_seconds", "test latency", "seconds", "")
	h.Record(time.Millisecond)
	h.Record(2 * time.Millisecond)
	h.Record(time.Second)
	reg.NewDuty("gc").Observe(time.Millisecond)
	reg.Ring().Observe(Span{Kind: "x"})
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE mainline_test_seconds histogram",
		`mainline_test_seconds_bucket{le="+Inf"} 3`,
		"mainline_test_seconds_count 3",
		`mainline_duty_busy_seconds_total{subsystem="gc"} 0.001`,
		`mainline_duty_runs_total{subsystem="gc"} 1`,
		"mainline_slow_ops_captured_total 1",
		"mainline_slow_op_threshold_seconds 0.1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// _sum ≈ 1.003 seconds (bucketization does not affect the sum).
	if !strings.Contains(out, "mainline_test_seconds_sum 1.003") {
		t.Errorf("exposition missing exact sum\n%s", out)
	}
}

func TestWriteStats(t *testing.T) {
	type sub struct {
		Enabled bool
		N       int64 `metric:"x_sub_total"`
	}
	v := struct {
		Count  int64         `metric:"x_count_total"`
		Lag    uint64        `metric:"x_lag"`
		Up     bool          `metric:"x_up"`
		Age    time.Duration `metric:"x_age_seconds"`
		Skip   int64         `metric:"-"`
		Note   string
		On     sub
		Off    sub
		Hidden sub `metric:"-"`
	}{Count: 3, Lag: 7, Up: true, Age: 1500 * time.Millisecond, Skip: 9,
		On: sub{Enabled: true, N: 4}, Off: sub{N: 5}, Hidden: sub{Enabled: true, N: 6}}
	var b strings.Builder
	WriteStats(&b, v)
	want := "# TYPE x_count_total counter\nx_count_total 3\n" +
		"# TYPE x_lag gauge\nx_lag 7\n" +
		"# TYPE x_up gauge\nx_up 1\n" +
		"# TYPE x_age_seconds gauge\nx_age_seconds 1.5\n" +
		"# TYPE x_sub_total counter\nx_sub_total 4\n"
	if got := b.String(); got != want {
		t.Fatalf("WriteStats:\n%s\nwant:\n%s", got, want)
	}
}
