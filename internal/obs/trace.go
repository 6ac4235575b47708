package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase is one timed segment of a slow operation (e.g. the commit
// critical section vs the durable wait).
type Phase struct {
	Name  string `json:"name"`
	DurNs int64  `json:"dur_ns"`
}

// Span is one captured slow operation: what it was, which transaction
// it belonged to (when known), when it started, how long it took, and
// how the time broke down.
type Span struct {
	Kind   string    `json:"kind"`
	TxnID  uint64    `json:"txn_id,omitempty"`
	Start  time.Time `json:"start"`
	DurNs  int64     `json:"dur_ns"`
	Phases []Phase   `json:"phases,omitempty"`
}

// TraceRing is a bounded ring of slow-op spans. The hot-path contract
// is Exceeds: one atomic load and a compare, so instrumented code pays
// nothing until an op is actually slow. Observe then takes a mutex —
// acceptable because slow ops are rare by definition. All methods are
// nil-safe.
type TraceRing struct {
	threshold atomic.Int64
	captured  atomic.Int64

	mu    sync.Mutex
	spans []Span
	next  int
	n     int // live spans (≤ len(spans))
}

// NewTraceRing builds a ring holding capacity spans that captures ops
// taking at least threshold.
func NewTraceRing(capacity int, threshold time.Duration) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	r := &TraceRing{spans: make([]Span, capacity)}
	r.threshold.Store(int64(threshold))
	return r
}

// Exceeds reports whether an op of duration d should be captured.
func (r *TraceRing) Exceeds(d time.Duration) bool {
	return r != nil && int64(d) >= r.threshold.Load()
}

// Threshold returns the current capture threshold.
func (r *TraceRing) Threshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.threshold.Load())
}

// SetThreshold changes the capture threshold at runtime.
func (r *TraceRing) SetThreshold(d time.Duration) {
	if r != nil {
		r.threshold.Store(int64(d))
	}
}

// Observe stores a span, evicting the oldest when full.
func (r *TraceRing) Observe(sp Span) {
	if r == nil {
		return
	}
	r.captured.Add(1)
	r.mu.Lock()
	r.spans[r.next] = sp
	r.next = (r.next + 1) % len(r.spans)
	if r.n < len(r.spans) {
		r.n++
	}
	r.mu.Unlock()
}

// Captured returns the total number of spans ever captured (including
// ones since evicted).
func (r *TraceRing) Captured() int64 {
	if r == nil {
		return 0
	}
	return r.captured.Load()
}

// Snapshot returns the live spans, newest first.
func (r *TraceRing) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.spans[(r.next-i+len(r.spans))%len(r.spans)])
	}
	return out
}
