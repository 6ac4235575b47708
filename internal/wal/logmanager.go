package wal

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mainline/internal/obs"
	"mainline/internal/txn"
)

// ErrLogFailed marks every durability callback failed by a wedged log
// manager: a WAL write or fsync error is fail-stop for durability — the
// group that hit it and everything queued behind it are failed, never
// acked. Failed callbacks receive an error wrapping both ErrLogFailed
// and the root cause.
var ErrLogFailed = errors.New("wal: log failed; durability unavailable")

// errSeal marks a truncation that failed while sealing (fsyncing) the
// active segment.
var errSeal = errors.New("wal: sealing the active segment")

// Sink abstracts the durable device so tests can inject failures and
// benchmarks can swap in a null device.
type Sink interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// LatencySink wraps a segmented sink and imposes a minimum Sync duration,
// emulating a storage device with a fixed sync cost (benchmarks on
// filesystems whose fsync is near-free would otherwise measure only CPU).
// Group commit's value is amortizing exactly this latency across a batch.
// Group writes and truncation pass straight through, so the wrapped log
// still rotates, attributes commit timestamps to segments and truncates.
type LatencySink struct {
	Inner *SegmentedSink
	// SyncLatency is the minimum wall-clock cost of one Sync.
	SyncLatency time.Duration
}

// Write forwards to the inner sink.
func (s *LatencySink) Write(p []byte) (int, error) { return s.Inner.Write(p) }

// WriteGroup forwards to the inner sink.
func (s *LatencySink) WriteGroup(p []byte, maxTs uint64) (int, error) {
	return s.Inner.WriteGroup(p, maxTs)
}

// TruncateThrough forwards to the inner sink.
func (s *LatencySink) TruncateThrough(ts uint64) (int, error) {
	return s.Inner.TruncateThrough(ts)
}

// Sync forwards to the inner sink and pads the call out to SyncLatency.
func (s *LatencySink) Sync() error {
	start := time.Now()
	err := s.Inner.Sync()
	if rest := s.SyncLatency - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
	return err
}

// Close closes the inner sink.
func (s *LatencySink) Close() error { return s.Inner.Close() }

// numEnqueueShards spreads committer enqueues across independent latches so
// the commit hook itself never becomes the serial section it exists to
// remove. Power of two; shard selection masks the commit timestamp.
const numEnqueueShards = 8

// pendingTxn is one committed transaction whose redo buffer has already
// been serialized (by its own committing goroutine) and awaits the group
// fsync. chunk is a pool pointer so recycling it does not box the slice
// header (staticcheck SA6002).
type pendingTxn struct {
	t     *txn.Transaction
	chunk *[]byte
}

// enqueueShard is one slice of the flush queue.
type enqueueShard struct {
	mu      sync.Mutex
	pending []pendingTxn
	_       [32]byte
}

// LogManager implements group commit (§3.4). Committers serialize their own
// redo buffers — spreading encoding work across all committing cores — and
// enqueue the resulting chunks into sharded pending lists; the flush
// goroutine coalesces every queued chunk into a single write+fsync and then
// fires durability callbacks. One goroutine owns the sink; transactions
// only enqueue.
type LogManager struct {
	sink Sink

	shards  [numEnqueueShards]enqueueShard
	queued  atomic.Int64 // enqueued but not yet drained
	nudge   chan struct{}
	stopCh  chan struct{}
	doneCh  chan struct{}
	started atomic.Bool

	// failed wedges the manager after a write or sync error: nothing
	// further is written, because bytes appended past a failed group
	// would break the dependency-closed prefix (a later transaction on
	// disk whose earlier dependency never landed). Wedging fails every
	// waiter — the failed group's and everything queued (see failFlush);
	// later Enqueues fail their callback immediately. The default
	// OnError panics; survivable OnError overrides (the engine's
	// degraded mode) observe FailedFlushes and must treat the log as
	// lost.
	failed atomic.Bool
	// failCause is the wrapped root cause handed to failed waiters.
	failCause atomic.Pointer[error]

	// chunkPool recycles per-transaction serialization buffers (up to
	// maxPooledChunk bytes each).
	chunkPool sync.Pool

	// flushMu serializes FlushOnce callers (background loop vs manual).
	flushMu sync.Mutex
	// buf is the coalesced batch buffer, reused across flushes while it
	// stays within maxRetainedGroup bytes.
	buf []byte
	// frontier reports the manager's commit frontier (txn.CommitFrontier);
	// nil disables dependency-closed flushing (every drained chunk is
	// written immediately) — acceptable for single-threaded use, required
	// to be set for concurrent durable commits. Set via Attach (before
	// Start).
	frontier func() uint64

	// Stats.
	txnsLogged    atomic.Int64
	bytesWritten  atomic.Int64
	syncs         atomic.Int64
	failedFlushes atomic.Int64

	// metrics are the group-commit instruments; obsOn gates the
	// time.Now() calls so an unmetered manager pays nothing.
	metrics Metrics
	obsOn   bool

	// OnError receives background flush errors (default: panic, because a
	// storage engine must not silently lose durability).
	OnError func(error)

	// SyncDelay is how long the flusher waits after the first enqueue
	// before draining, letting a group form instead of syncing the first
	// committer alone (MySQL's binlog group-commit sync delay). 0 flushes
	// immediately — lowest latency, smallest groups. Set before Start.
	SyncDelay time.Duration
}

// NewLogManager creates a manager writing to sink.
func NewLogManager(sink Sink) *LogManager {
	l := &LogManager{
		sink:  sink,
		nudge: make(chan struct{}, 1),
		OnError: func(err error) {
			panic(fmt.Sprintf("wal: flush failed: %v", err))
		},
	}
	l.chunkPool.New = func() any { b := make([]byte, 0, 512); return &b }
	return l
}

// OpenPipeline assembles the whole group-commit pipeline in one call: a
// segmented sink in dir with the default segment size (wrapped in a
// LatencySink when syncLatency > 0), a log manager with the given
// group-formation window, frontier attachment to m, and the background
// flusher at flushInterval. Close the returned manager to drain and
// release the active segment.
func OpenPipeline(dir string, m *txn.Manager, syncLatency, syncDelay, flushInterval time.Duration) (*LogManager, error) {
	segSink, err := OpenSegmentedSink(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	var sink Sink = segSink
	if syncLatency > 0 {
		sink = &LatencySink{Inner: segSink, SyncLatency: syncLatency}
	}
	l := NewLogManager(sink)
	l.SyncDelay = syncDelay
	l.Attach(m)
	l.Start(flushInterval)
	return l, nil
}

// Metrics is the group-commit pipeline's observability hook set. Every
// field is optional; install with SetMetrics before Start.
type Metrics struct {
	// SyncLatency observes the wall time of one group's write+fsync.
	SyncLatency *obs.Histogram
	// GroupTxns observes the number of transactions coalesced per fsync
	// — the group-commit amortization the paper leans on (§3.4).
	GroupTxns *obs.Histogram
	// GroupBytes observes the bytes written per fsync.
	GroupBytes *obs.Histogram
	// FlushDuty accounts flusher busy time (write+sync, not the
	// group-formation wait).
	FlushDuty *obs.Duty
}

// SetMetrics installs the group-commit instruments. Call before Start.
func (l *LogManager) SetMetrics(mt Metrics) {
	l.metrics = mt
	l.obsOn = mt.SyncLatency != nil || mt.GroupTxns != nil ||
		mt.GroupBytes != nil || mt.FlushDuty != nil
}

// Attach wires the log manager to the transaction manager: installs the
// commit hook and the commit-frontier source that keeps the written log
// prefix dependency-closed (see FlushOnce). Use this (rather than
// SetCommitHook(Hook()) alone) whenever transactions commit concurrently.
func (l *LogManager) Attach(m *txn.Manager) {
	l.frontier = m.CommitFrontier
	m.SetCommitHook(l.Hook())
}

// Hook returns the commit hook to install on the transaction manager. It
// runs on the committing goroutine, inside its commit latch shard: it
// frames the transaction's encoded redo buffer into a pooled chunk,
// appends it to an enqueue shard, and nudges the flusher. The rest of the
// system treats the transaction as committed immediately; results are
// published to clients only via the durability callback.
func (l *LogManager) Hook() txn.CommitHook {
	return func(t *txn.Transaction) {
		l.Enqueue(t)
	}
}

// Enqueue frames t's encoded redo entries with its commit timestamp and
// CRC into a pooled chunk and adds it to the flush queue; t's redo buffer
// is released when the commit hook returns. Read-only transactions
// contribute only a read-only commit record (the paper requires their
// presence in the queue; recovery ignores them).
func (l *LogManager) Enqueue(t *txn.Transaction) {
	if l.failed.Load() {
		// The log is wedged: this chunk can never be written, and the
		// flusher that would have acked it is gone. Fail the committer's
		// durability wait immediately instead of hanging it.
		t.FinishDurable(l.wedgedErr())
		return
	}
	cp := l.chunkPool.Get().(*[]byte)
	chunk := (*cp)[:0]
	ts := t.CommitTs()
	redo := t.Redo()
	for rest := redo; len(rest) > 0; {
		var body []byte
		body, rest = txn.NextRedo(rest)
		chunk = AppendRedo(chunk, ts, body)
	}
	chunk = AppendCommit(chunk, ts, len(redo) == 0)
	*cp = chunk

	sh := &l.shards[t.CommitTs()&(numEnqueueShards-1)]
	sh.mu.Lock()
	sh.pending = append(sh.pending, pendingTxn{t: t, chunk: cp})
	sh.mu.Unlock()
	l.queued.Add(1)

	// Re-check after publishing: a concurrent failFlush may have drained
	// the shards just before our append landed. Sequential consistency of
	// the two atomic ops guarantees either failFlush's drain sees our
	// entry or this load sees failed — never neither — so no waiter can
	// slip between the wedge and the drain and hang.
	if l.failed.Load() {
		l.failQueued(l.wedgedErr())
		return
	}

	select {
	case l.nudge <- struct{}{}:
	default:
	}
}

// Start launches the flush goroutine. interval bounds how long a commit may
// wait for its group; the queue nudge makes idle-system commits flush
// immediately, so groups form only under concurrency.
func (l *LogManager) Start(interval time.Duration) {
	if l.started.Swap(true) {
		return
	}
	l.stopCh = make(chan struct{})
	l.doneCh = make(chan struct{})
	go func() {
		defer close(l.doneCh)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-l.stopCh:
				l.FlushOnce()
				return
			case <-ticker.C:
				l.groupWindow()
				l.FlushOnce()
			case <-l.nudge:
				l.groupWindow()
				l.FlushOnce()
			}
		}
	}()
}

// groupWindow waits out the SyncDelay group-formation window before a
// flush with work pending. Applied on every wakeup — ticker included —
// so select's pseudo-random choice between ready arms cannot cut groups
// short.
func (l *LogManager) groupWindow() {
	if l.SyncDelay > 0 && l.queued.Load() > 0 {
		time.Sleep(l.SyncDelay)
	}
}

// Stop halts the flush goroutine and drains outstanding commits. Callers
// must not race new Commits past Stop (finish or join committers first);
// every commit enqueued before Stop is flushed and its durability callback
// fired, even if it slipped past the flusher's final pass.
func (l *LogManager) Stop() {
	if l.started.Swap(false) {
		close(l.stopCh)
		<-l.doneCh
	}
	// Drain even if the background flusher never ran (manual-flush mode):
	// the contract covers every enqueued commit. A wedged (failed) log
	// cannot make progress, so it is exempt.
	for l.queued.Load() > 0 && !l.failed.Load() {
		l.FlushOnce()
	}
}

// Abandon halts the flush goroutine WITHOUT the final flush or drain —
// the crash-simulation counterpart of Stop. Queued chunks are dropped
// exactly as a process kill would drop them: their waiters were never
// acked durable, so losing them breaks no promise. The manager is wedged
// so a racing committer fails fast instead of queueing into the void.
func (l *LogManager) Abandon() {
	werr := fmt.Errorf("%w: abandoned (simulated crash)", ErrLogFailed)
	l.failCause.Store(&werr)
	l.failed.Store(true)
	if l.started.Swap(false) {
		close(l.stopCh)
		<-l.doneCh
	}
	// Fail (rather than strand) any waiter still queued: a real kill
	// would vaporize its goroutine, but an in-process simulation must not
	// leave it blocked on a durability ack that can never come.
	l.failQueued(l.wedgedErr())
}

// FlushOnce drains the enqueue shards, coalesces pre-serialized chunks
// into one sink write, fsyncs, then fires the group's durability callbacks
// — one group commit. A write or sync error is fail-stop for durability:
// the fsync gate was never passed, so EVERY waiter in the group is failed
// (none may be acked durable against an unsynced log), everything still
// queued is failed behind it, the manager wedges, and OnError observes
// the root cause last (see failFlush).
//
// With a frontier source attached (Attach), the written prefix of the log
// is kept DEPENDENCY-CLOSED: only chunks whose commit timestamp lies below
// the write frontier — the minimum of the manager's commit frontier and
// the oldest chunk still waiting in the enqueue shards — are written this
// round (the rest are re-queued), and each group is written in ascending
// timestamp order. Consequence: for any transaction on disk, every
// committed transaction with a smaller timestamp — everything it could
// have read from — is on disk at or before it, even across a torn tail.
// Without this, a crash could preserve a dependent transaction while
// losing its dependency, and recovery (which replays exactly the
// timestamps whose commit records survived) would fail on the missing
// slot or materialize a state that never existed.
func (l *LogManager) FlushOnce() {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	if l.failed.Load() || l.queued.Load() == 0 {
		return
	}
	var batch []pendingTxn
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		batch = append(batch, sh.pending...)
		sh.pending = nil
		sh.mu.Unlock()
	}
	if len(batch) == 0 {
		return
	}
	l.queued.Add(int64(-len(batch)))

	if l.frontier != nil {
		// Write frontier: the manager's latch barrier guarantees every
		// commit ts below it has reached our queue; the waiting-chunk scan
		// (which must run after the barrier) covers chunks enqueued since
		// the drain above. Chunks at or above the frontier wait for the
		// next group.
		frontier := l.frontier()
		for i := range l.shards {
			sh := &l.shards[i]
			sh.mu.Lock()
			for _, p := range sh.pending {
				if ts := p.t.CommitTs(); ts < frontier {
					frontier = ts
				}
			}
			sh.mu.Unlock()
		}
		write := batch[:0]
		var requeue []pendingTxn
		for _, p := range batch {
			if p.t.CommitTs() < frontier {
				write = append(write, p)
			} else {
				requeue = append(requeue, p)
			}
		}
		batch = write
		if len(requeue) > 0 {
			for _, p := range requeue {
				sh := &l.shards[p.t.CommitTs()&(numEnqueueShards-1)]
				sh.mu.Lock()
				sh.pending = append(sh.pending, p)
				sh.mu.Unlock()
			}
			l.queued.Add(int64(len(requeue)))
		}
		if len(batch) == 0 {
			return
		}
		// Ascending timestamp order makes every prefix of the write — and
		// therefore any torn tail — dependency-closed too.
		sort.Slice(batch, func(i, j int) bool {
			return batch[i].t.CommitTs() < batch[j].t.CommitTs()
		})
	}

	buf := l.buf[:0]
	var groupMaxTs uint64
	for _, p := range batch {
		buf = append(buf, *p.chunk...)
		if ts := p.t.CommitTs(); ts > groupMaxTs {
			groupMaxTs = ts
		}
	}
	l.buf = buf
	if cap(buf) > maxRetainedGroup {
		l.buf = nil // one huge group must not pin its buffer for good
	}
	for _, p := range batch {
		l.recycleChunk(p.chunk)
	}

	var t0 time.Time
	if l.obsOn {
		t0 = time.Now()
	}
	var err error
	if gs, ok := l.sink.(GroupSink); ok {
		// Segmented sinks rotate between groups and track per-segment
		// maximum commit timestamps, which makes checkpoint truncation an
		// exact whole-file operation.
		_, err = gs.WriteGroup(buf, groupMaxTs)
	} else {
		_, err = l.sink.Write(buf)
	}
	if err != nil {
		l.failFlush(batch, err)
		return
	}
	if err := l.sink.Sync(); err != nil {
		l.failFlush(batch, err)
		return
	}
	l.syncs.Add(1)
	l.bytesWritten.Add(int64(len(buf)))
	l.txnsLogged.Add(int64(len(batch)))
	if l.obsOn {
		d := time.Since(t0)
		l.metrics.SyncLatency.Record(d)
		l.metrics.FlushDuty.Observe(d)
		l.metrics.GroupTxns.RecordValue(int64(len(batch)))
		l.metrics.GroupBytes.RecordValue(int64(len(buf)))
	}

	// Durability achieved — and with a frontier, every dependency of every
	// member is already on disk, so acks are safe to release immediately.
	for _, p := range batch {
		p.t.FinishDurable(nil)
	}
}

// failFlush is the fail-stop path of a group commit: the write or sync
// failed, so durability was NOT achieved for this group — and can never
// be achieved for anything behind it, because appending past a failed
// group would break the dependency-closed prefix. The manager wedges
// (failed = true) FIRST, then fails every waiter: the group's members
// (the fsync-gate rule — no transaction is acked durable against an
// unsynced log), then everything still queued in the enqueue shards.
// OnError runs last with the root cause, so an engine-level handler
// (degraded mode) observes a manager that is already sealed and drained.
func (l *LogManager) failFlush(batch []pendingTxn, cause error) {
	werr := fmt.Errorf("%w: %w", ErrLogFailed, cause)
	l.failCause.Store(&werr)
	l.failed.Store(true)
	l.failedFlushes.Add(1)
	// The group's chunks were already recycled before the sink write; only
	// the callbacks remain to fire.
	for _, p := range batch {
		p.t.FinishDurable(werr)
	}
	l.failQueued(werr)
	l.OnError(cause)
}

// failQueued drains the enqueue shards and fails each waiter's
// durability callback: their chunks can never be written (the log is
// wedged), and leaving them queued would hang durable committers
// forever. Also run by Enqueue when it loses the race with a concurrent
// wedge (see the re-check there).
func (l *LogManager) failQueued(err error) {
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		pending := sh.pending
		sh.pending = nil
		sh.mu.Unlock()
		if len(pending) == 0 {
			continue
		}
		l.queued.Add(int64(-len(pending)))
		for _, p := range pending {
			l.recycleChunk(p.chunk)
			p.t.FinishDurable(err)
		}
	}
}

// maxPooledChunk bounds the capacity of a chunk returned to chunkPool, and
// maxRetainedGroup that of the coalesced group buffer kept for the next
// flush: one huge transaction's chunk, or one huge group (a bulk load
// flushed at once), is left to the garbage collector rather than pinned
// for good.
const (
	maxPooledChunk   = 64 << 10
	maxRetainedGroup = 4 << 20
)

// recycleChunk returns a written (or failed) chunk to the pool.
func (l *LogManager) recycleChunk(cp *[]byte) {
	if cap(*cp) > maxPooledChunk {
		return
	}
	*cp = (*cp)[:0]
	l.chunkPool.Put(cp)
}

// wedgedErr returns the error handed to waiters failed after the wedge.
func (l *LogManager) wedgedErr() error {
	if e := l.failCause.Load(); e != nil {
		return *e
	}
	return ErrLogFailed
}

// Stats reports lifetime counters: transactions logged, bytes written, and
// fsync batches. txns/syncs is the achieved mean group-commit size.
func (l *LogManager) Stats() (txns, bytes, syncs int64) {
	return l.txnsLogged.Load(), l.bytesWritten.Load(), l.syncs.Load()
}

// FailedFlushes reports flush errors survived via OnError.
func (l *LogManager) FailedFlushes() int64 { return l.failedFlushes.Load() }

// Truncate discards WAL segments wholly covered by a checkpoint at
// snapshot timestamp ts: the active segment is sealed and every sealed
// segment whose maximum commit timestamp is <= ts is deleted. It runs
// under the flush lock so it never races a group write. Sinks without
// segment support (test sinks) report (0, nil).
func (l *LogManager) Truncate(ts uint64) (int, error) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	tr, ok := l.sink.(Truncator)
	if !ok {
		return 0, nil
	}
	n, err := tr.TruncateThrough(ts)
	if errors.Is(err, errSeal) {
		// Sealing fsyncs the active segment, and a failed WAL fsync is
		// fail-stop here exactly as on the flush path.
		l.failFlush(nil, err)
	}
	return n, err
}

// Close stops the manager and closes the sink.
func (l *LogManager) Close() error {
	l.Stop()
	return l.sink.Close()
}
