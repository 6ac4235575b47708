package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip: every value maps into a bucket whose bounds
// contain it, indexes are monotone in the value, and the layout is
// contiguous (every bucket's upper is one below the next lower).
func TestBucketRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 15, 16, 17, 31, 32, 33, 255, 256, 1000, 1 << 20, 1<<40 + 12345}
	for v := int64(0); v < 5000; v++ {
		vals = append(vals, v)
	}
	prev := -1
	prevV := int64(-1)
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if v > BucketUpper(i) {
			t.Fatalf("value %d above its bucket upper %d (bucket %d)", v, BucketUpper(i), i)
		}
		if i > 0 && v <= BucketUpper(i-1) {
			t.Fatalf("value %d should be in bucket %d or below (upper %d) but mapped to %d",
				v, i-1, BucketUpper(i-1), i)
		}
		if v > prevV && i < prev {
			t.Fatalf("bucket index not monotone: v=%d idx=%d after v=%d idx=%d", v, i, prevV, prev)
		}
		prev, prevV = i, v
	}
	for i := 1; i < NumBuckets; i++ {
		if bucketIndex(BucketUpper(i-1)+1) != i {
			t.Fatalf("layout gap between bucket %d (upper %d) and %d", i-1, BucketUpper(i-1), i)
		}
	}
	// Values beyond the table clamp into the last bucket.
	if got := bucketIndex(1 << 62); got != NumBuckets-1 {
		t.Fatalf("huge value mapped to %d, want clamp to %d", got, NumBuckets-1)
	}
}

// TestQuantileOracle drives the histogram with several distributions and
// checks Quantile against a sorted-sample oracle. The histogram's answer
// is a bucket upper bound, so it must be >= the oracle and within one
// bucket's relative width (1/16 plus the linear region's absolute 16).
func TestQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform":  func() int64 { return rng.Int63n(1_000_000) },
		"exp":      func() int64 { return int64(rng.ExpFloat64() * 50_000) },
		"lognorm":  func() int64 { return int64(50 * (1 << uint(rng.Intn(20)))) },
		"constant": func() int64 { return 77_777 },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 5_000_000 + rng.Int63n(100_000)
			}
			return 1_000 + rng.Int63n(1_000)
		},
	}
	for name, gen := range dists {
		h := NewHistogram("t", "", "", "")
		samples := make([]int64, 0, 20_000)
		for i := 0; i < 20_000; i++ {
			v := gen()
			samples = append(samples, v)
			h.RecordValue(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		s := h.Snapshot()
		if s.Count != int64(len(samples)) {
			t.Fatalf("%s: count %d != %d", name, s.Count, len(samples))
		}
		var sum int64
		for _, v := range samples {
			sum += v
		}
		if s.Sum != sum {
			t.Fatalf("%s: sum %d != %d", name, s.Sum, sum)
		}
		for _, p := range []float64{0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0} {
			rank := int(p*float64(len(samples)) + 0.5)
			if rank < 1 {
				rank = 1
			}
			if rank > len(samples) {
				rank = len(samples)
			}
			oracle := samples[rank-1]
			got := s.Quantile(p)
			if got < oracle {
				t.Errorf("%s p=%v: histogram %d below oracle %d", name, p, got, oracle)
			}
			// One bucket of relative error, plus the exact-region slack.
			limit := oracle + oracle/(numLinear-2) + numLinear
			if got > limit {
				t.Errorf("%s p=%v: histogram %d exceeds oracle %d by more than a bucket (limit %d)",
					name, p, got, oracle, limit)
			}
		}
	}
}

// TestMergeAssociativity: merging per-worker snapshots must be
// associative and commutative, and equal one histogram fed everything.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all := NewHistogram("all", "", "", "")
	parts := make([]*Histogram, 3)
	for i := range parts {
		parts[i] = NewHistogram("part", "", "", "")
	}
	for i := 0; i < 30_000; i++ {
		v := rng.Int63n(10_000_000)
		all.RecordValue(v)
		parts[i%3].RecordValue(v)
	}
	a, b, c := parts[0].Snapshot(), parts[1].Snapshot(), parts[2].Snapshot()
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	swapped := c.Merge(a).Merge(b)
	want := all.Snapshot()
	for _, m := range []HistSnapshot{left, right, swapped} {
		if m.Count != want.Count || m.Sum != want.Sum {
			t.Fatalf("merge count/sum (%d,%d) != direct (%d,%d)", m.Count, m.Sum, want.Count, want.Sum)
		}
		for i := range want.Counts {
			var mv int64
			if i < len(m.Counts) {
				mv = m.Counts[i]
			}
			if mv != want.Counts[i] {
				t.Fatalf("merge bucket %d = %d, direct = %d", i, mv, want.Counts[i])
			}
		}
		for _, p := range []float64{0.5, 0.99} {
			if m.Quantile(p) != want.Quantile(p) {
				t.Fatalf("merge quantile %v = %d, direct = %d", p, m.Quantile(p), want.Quantile(p))
			}
		}
	}
}

// TestHistogramConcurrent is the -race stress: N writers record while a
// reader snapshots continuously; the final snapshot must account for
// every observation exactly once.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("c", "", "", "")
	const writers = 8
	const perWriter = 50_000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var n int64
			for _, c := range s.Counts {
				n += c
			}
			if n != s.Count {
				t.Errorf("snapshot count %d != bucket sum %d", s.Count, n)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.RecordValue(rng.Int63n(1_000_000))
			}
		}(int64(w))
	}
	// Writers finish, then the reader is released.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		s := h.Snapshot()
		if s.Count == writers*perWriter {
			break
		}
		select {
		case <-done:
		case <-time.After(time.Millisecond):
		}
		if s.Count > writers*perWriter {
			t.Fatalf("overcounted: %d", s.Count)
		}
	}
	close(stop)
	<-done
	if s := h.Snapshot(); s.Count != writers*perWriter {
		t.Fatalf("final count %d, want %d", s.Count, writers*perWriter)
	}
}

func TestNilSafety(t *testing.T) {
	var h *Histogram
	h.Record(time.Second)
	h.RecordValue(5)
	h.RecordSince(time.Now())
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
	var d *Duty
	d.Observe(time.Second)
	d.Track()()
	if s := d.Snapshot(); s.Runs != 0 {
		t.Fatal("nil duty snapshot not empty")
	}
	var r *TraceRing
	if r.Exceeds(time.Hour) {
		t.Fatal("nil ring claims to capture")
	}
	r.Observe(Span{})
	r.SetThreshold(time.Second)
	if r.Snapshot() != nil || r.Captured() != 0 {
		t.Fatal("nil ring not empty")
	}
	var reg *Registry
	if reg.Ring() != nil {
		t.Fatal("nil registry ring")
	}
}

func TestEmptyQuantile(t *testing.T) {
	s := NewHistogram("e", "", "", "").Snapshot()
	if s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatal("empty histogram quantile/mean not zero")
	}
}
