package txn

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mainline/internal/obs"
	"mainline/internal/storage"
)

// CommitHook receives committed transactions whose redo buffers must be made
// durable; the WAL implements it. The hook must eventually invoke the
// transaction's durable callback. It runs on the committing goroutine
// INSIDE the transaction's commit latch shard — load-bearing for
// CommitFrontier's barrier guarantee — so it must be quick, must not
// block, and must not begin or finish other transactions. It must be safe
// for concurrent invocation (one call per shard at a time). The redo
// buffer (Transaction.Redo) goes back to a pool when the hook returns, so
// the hook copies what it keeps.
type CommitHook func(*Transaction)

// Deferrer schedules a function to run once every transaction active at
// registration time has finished — the GC's deferred-action epoch. The
// commit path uses it to retire index entries for deleted tuples only
// after no active snapshot can still need them; gc.New wires the collector
// in automatically.
type Deferrer interface {
	RegisterAction(fn func())
}

// NumShards is the number of latch shards for the commit critical section,
// the active-transactions table, and the completed queue. Committers on
// different shards never contend; within a shard the paper's small commit
// critical section (commit-timestamp allocation + undo stamping) still runs
// under a latch. Power of two so shard selection is a mask.
const NumShards = 16

// shardMask extracts a shard index from the round-robin counter.
const shardMask = NumShards - 1

// stampingSentinel marks a commit shard whose committer has entered the
// critical section but has not yet drawn its commit timestamp. Begin
// treats it as "a commit with an unknown timestamp is in flight" and
// waits for it to resolve. The value carries the uncommitted flag, so it
// can never collide with a real commit timestamp.
const stampingSentinel = ^uint64(0)

// commitShard is one commit latch, padded to its own cache line so latches
// on neighbouring shards do not false-share.
//
// stamping publishes the shard's in-flight commit to Begin: sentinel while
// the commit timestamp is being drawn, then the commit timestamp itself
// while undo records are stamped, then zero. Begin blocks on shards whose
// in-flight commit timestamp is (or may be) below its start timestamp —
// see waitForInFlightCommits for why this is required for snapshot
// isolation.
type commitShard struct {
	mu       sync.Mutex
	stamping atomic.Uint64
	_        [48]byte
}

// activeShard is one slice of the active-transactions table plus that
// shard's completed queue. Begin draws the start timestamp while holding the
// shard latch — OldestActiveTs relies on this (see the comment there).
type activeShard struct {
	mu        sync.Mutex
	active    map[uint64]*Transaction // keyed by start timestamp
	completed []*Transaction
	_         [24]byte
}

// Manager is the transaction engine: it issues timestamps, tracks active
// transactions (the "transactions table" the GC consults for the oldest
// active start timestamp), runs the small commit critical section, and
// executes the abort protocol.
//
// The commit path is sharded for multi-core scaling: a transaction is
// assigned a shard at Begin (round-robin), and Commit serializes only
// against other committers on the same shard. This is sound because the
// critical section touches exclusively per-transaction state (the commit
// timestamp and the transaction's own undo records); cross-transaction
// ordering comes from the global timestamp counter, and WAL recovery
// replays by commit timestamp rather than log position, so commits need not
// reach the log in timestamp order.
type Manager struct {
	ts  TimestampSource
	reg *storage.Registry

	pool *SegmentPool

	// beginCounter round-robins Begin calls across shards.
	beginCounter atomic.Uint64

	// commitShards are the paper's small commit critical section (§3.1),
	// sharded: timestamp assignment and undo-record stamping for
	// transactions on different shards proceed in parallel.
	commitShards [NumShards]commitShard

	// activeShards hold the active table and completed queues.
	activeShards [NumShards]activeShard

	commitHook CommitHook

	// deferrer delays physical index-entry removal past active snapshots;
	// nil (no GC attached) falls back to immediate removal, which is only
	// safe when no concurrent reader holds an older snapshot (tests,
	// single-threaded tools).
	deferrer Deferrer

	// metrics are the commit path's latency instruments; obsOn gates the
	// time.Now() calls so an unmetered manager pays nothing.
	metrics Metrics
	obsOn   bool
}

// Metrics is the commit path's observability hook set. Every field is
// optional (obs histograms are nil-safe); install with SetMetrics before
// concurrent use, like SetCommitHook.
type Metrics struct {
	// CommitLatency observes Manager.Commit end to end: latch wait,
	// stamping, index publication, redo hand-off, retire.
	CommitLatency *obs.Histogram
	// CommitLatchWait observes the time spent acquiring the commit shard
	// latch — the paper's critical-section contention signal.
	CommitLatchWait *obs.Histogram
	// BeginStampWait observes the stamping barrier in Begin, recorded
	// only for Begins that actually spun (most see all-zero slots).
	BeginStampWait *obs.Histogram
}

// SetMetrics installs the commit-path instruments. Call before the
// manager sees concurrent traffic.
func (m *Manager) SetMetrics(mt Metrics) {
	m.metrics = mt
	m.obsOn = mt.CommitLatency != nil || mt.CommitLatchWait != nil || mt.BeginStampWait != nil
}

// NewManager builds a transaction manager over the block registry.
func NewManager(reg *storage.Registry) *Manager {
	m := &Manager{
		reg:  reg,
		pool: NewSegmentPool(),
	}
	for i := range m.activeShards {
		m.activeShards[i].active = make(map[uint64]*Transaction)
	}
	return m
}

// SetCommitHook installs the WAL's commit hook; nil disables logging (the
// durable callback then fires synchronously at commit).
func (m *Manager) SetCommitHook(h CommitHook) { m.commitHook = h }

// SetIndexDeferrer installs the deferred-action scheduler used to retire
// index entries (gc.New calls this). Must be set before concurrent commits
// that delete or re-key indexed tuples.
func (m *Manager) SetIndexDeferrer(d Deferrer) { m.deferrer = d }

// Registry returns the block registry transactions resolve slots through.
func (m *Manager) Registry() *storage.Registry { return m.reg }

// SegmentPool exposes the undo segment pool (GC reclamation, tests).
func (m *Manager) SegmentPool() *SegmentPool { return m.pool }

// Begin starts a transaction: start and in-flight commit timestamps come
// from the same counter, the latter with its sign bit flipped (§3.1). The
// start timestamp is drawn while the shard latch is held so that
// OldestActiveTs can bound unseen starts by the clock (see there).
func (m *Manager) Begin() *Transaction {
	shard := uint32(m.beginCounter.Add(1)) & shardMask
	sh := &m.activeShards[shard]
	sh.mu.Lock()
	start := m.ts.Next()
	t := &Transaction{
		mgr:   m,
		shard: shard,
		start: start,
		txnTs: MakeUncommitted(start),
		undo:  UndoBuffer{pool: m.pool},
	}
	sh.active[start] = t
	sh.mu.Unlock()
	m.waitForInFlightCommits(start)
	return t
}

// waitForInFlightCommits blocks until no commit with a timestamp below
// start is still stamping its undo records. Without this barrier a fresh
// snapshot could catch a committed-but-not-yet-stamped version chain: the
// reader sees the uncommitted flag, applies the before-image (a STALE
// read — the commit's timestamp is below the snapshot), and, if it then
// writes the tuple, canWrite re-reads the chain after stamping lands and
// admits the write — a lost update. TPC-C's consistency audit catches
// exactly this as W_YTD drift under heavy scheduler pressure.
//
// The wait is correct because the timestamp counter is sequentially
// consistent with the stamping slots: a committer stores the sentinel
// before drawing its commit timestamp, so any commit timestamp drawn
// before start is published (as sentinel or as the value) by the time
// Begin — which drew start later — loads the slot. Commits that draw
// after start are harmless (their timestamp exceeds the snapshot) and are
// skipped as soon as the sentinel resolves. The slot is held through
// index-entry publication for the same reason: a snapshot admitted
// between stamping and publication would see the new versions through
// the chain while their index entries are still missing. Stamping plus
// publication is a short loop over the transaction's own write set, so
// this spin is brief and most Begins see all-zero slots and never spin
// at all.
func (m *Manager) waitForInFlightCommits(start uint64) {
	var t0 time.Time
	waited := false
	for i := range m.commitShards {
		sh := &m.commitShards[i]
		for {
			v := sh.stamping.Load()
			if v == 0 || (v != stampingSentinel && v >= start) {
				break
			}
			if !waited {
				waited = true
				if m.obsOn {
					t0 = time.Now()
				}
			}
			runtime.Gosched()
		}
	}
	if waited && m.obsOn {
		m.metrics.BeginStampWait.RecordSince(t0)
	}
}

// Commit finishes a transaction: inside the (sharded) critical section it
// draws the commit timestamp, stamps every undo record with it — making
// the transaction's versions visible to later snapshots — and hands the
// redo buffer to the log manager's queue (still inside the latch; see
// CommitFrontier). durableCallback (optional) fires when the log manager
// decides the commit record's fate — nil error once it reaches disk, a
// wedge error if the log fails first; with logging disabled it fires
// immediately with nil. The rest of the system treats the transaction as
// committed as soon as this returns (§3.4).
func (m *Manager) Commit(t *Transaction, durableCallback func(error)) uint64 {
	if t.Finished() {
		panic("txn: commit on finished transaction")
	}
	t.readOnly = t.undo.Len() == 0 && len(t.Redo()) == 0
	t.durableCallback = durableCallback

	var t0 time.Time
	if m.obsOn {
		t0 = time.Now()
	}
	sh := &m.commitShards[t.shard]
	if m.obsOn && m.metrics.CommitLatchWait != nil {
		tl := time.Now()
		sh.mu.Lock()
		m.metrics.CommitLatchWait.RecordSince(tl)
	} else {
		sh.mu.Lock()
	}
	// Publish the in-flight commit to Begin BEFORE drawing the timestamp:
	// the sentinel→timestamp→zero sequence lets new snapshots wait out
	// stamping for commits below their start (see waitForInFlightCommits).
	// Read-only transactions have nothing to stamp and skip the slot.
	writer := t.undo.Len() > 0
	if writer {
		sh.stamping.Store(stampingSentinel)
	}
	commitTs := m.ts.Next()
	t.commit = commitTs
	if writer {
		sh.stamping.Store(commitTs)
		t.undo.Iterate(func(r *storage.UndoRecord) bool {
			r.SetTimestamp(commitTs)
			return true
		})
	}
	// Index deltas publish INSIDE the latch, after the undo records carry
	// the final commit timestamp: the entries and the versions they point
	// at become visible together, and index readers re-verify through the
	// version chain, so a reader can never observe an entry whose
	// visibility it cannot decide. The stamping slot stays held until the
	// entries are live: a snapshot beginning after stamping but before
	// publication would see the new version through the chain (its new key
	// verifies nothing under the old entry) while the new entry is still
	// missing from the tree — the row reachable under no key at all.
	if len(t.indexOps) > 0 {
		m.publishIndexOps(t)
	}
	if writer {
		sh.stamping.Store(0)
	}
	t.committed = true
	// The redo buffer is handed to the log manager's flush queue INSIDE
	// the latch: CommitFrontier's latch barrier then guarantees that every
	// commit timestamp below the frontier has reached the queue, which is
	// what lets the log manager release durability acks in dependency-safe
	// order (see wal: a transaction must not be acked before transactions
	// it may have read from are durable). Read-only transactions also
	// obtain a commit record (paper: guards speculative read anomalies);
	// the log manager skips writing it but still fires the callback.
	hook := m.commitHook
	if hook != nil {
		hook(t)
	}
	sh.mu.Unlock()
	t.releaseBuffers()

	if hook == nil {
		t.FinishDurable(nil)
	}
	m.retire(t)
	if m.obsOn {
		m.metrics.CommitLatency.RecordSince(t0)
	}
	return commitTs
}

// publishIndexOps applies a committing transaction's buffered index write
// set: insertions go live immediately; removals are deferred through the
// GC's action epoch so any snapshot that could still reach the dead entry
// drains first (stale entries are filtered by the readers' visibility
// re-check in the interim). Runs inside the commit latch shard.
func (m *Manager) publishIndexOps(t *Transaction) {
	var removals []IndexOp
	for i := range t.indexOps {
		op := &t.indexOps[i]
		if op.Remove {
			// The removal runs after the transaction's key buffer has
			// gone back to the pool; it keeps its own copy.
			rm := *op
			rm.Key = bytes.Clone(op.Key)
			removals = append(removals, rm)
		} else {
			op.Sink.PublishEntry(op.Key, op.Slot)
		}
	}
	if len(removals) > 0 {
		if d := m.deferrer; d != nil {
			d.RegisterAction(func() {
				for _, op := range removals {
					op.Sink.RemoveEntry(op.Key, op.Slot)
				}
			})
		} else {
			for _, op := range removals {
				op.Sink.RemoveEntry(op.Key, op.Slot)
			}
		}
	}
}

// CommitDurable commits t and blocks until its durable callback fires —
// with a log manager attached that is the group-commit fsync covering the
// commit record; without one the callback fires synchronously inside
// Commit and the wait is free. The caller must ensure something drives the
// log flush (a running flush loop or an explicit FlushOnce) or the wait
// never ends. A non-nil error means the log wedged before the commit
// record was durable: the transaction is committed in memory but was
// never acked durable.
func (m *Manager) CommitDurable(t *Transaction) (uint64, error) {
	done := make(chan struct{})
	var derr error
	ts := m.Commit(t, func(err error) { derr = err; close(done) })
	<-done
	return ts, derr
}

// CommitFrontier returns a timestamp F such that every transaction that
// committed with timestamp < F has already been handed to the commit hook
// (i.e., is in the log manager's queue or beyond). The clock is read
// first, then each commit latch is acquired and released: a commit the
// barrier races with either completes its critical section — hook call
// included — before the latch is granted, or draws its timestamp after
// the clock read and is therefore ≥ F.
func (m *Manager) CommitFrontier() uint64 {
	frontier := m.ts.Current() + 1
	for i := range m.commitShards {
		sh := &m.commitShards[i]
		// The empty critical section IS the barrier: it waits out any
		// committer currently inside the shard's commit path.
		sh.mu.Lock()
		//lint:ignore SA2001 the empty critical section IS the barrier
		sh.mu.Unlock() //nolint:staticcheck
	}
	return frontier
}

// Abort rolls back a transaction. In-place state is restored newest-first;
// records are then "committed" with a fresh abort timestamp rather than
// unlinked, closing the A-B-A race the paper describes: any reader that
// copied the aborted version necessarily has a snapshot older than the
// abort timestamp, so it applies the (now idempotent) before-image; readers
// that start later observe the restored tuple and stop at the record.
func (m *Manager) Abort(t *Transaction) {
	if t.Finished() {
		panic("txn: abort on finished transaction")
	}
	t.undo.IterateReverse(func(r *storage.UndoRecord) bool {
		m.rollback(t, r)
		return true
	})
	abortTs := m.ts.Next()
	t.commit = abortTs
	t.undo.Iterate(func(r *storage.UndoRecord) bool {
		r.SetTimestamp(abortTs)
		return true
	})
	t.aborted = true
	// Buffered index deltas were never published; dropping them (with
	// the redo entries) IS the index rollback.
	t.releaseBuffers()
	m.retire(t)
}

// rollback restores the in-place effect of one of t's undo records.
func (m *Manager) rollback(t *Transaction, r *storage.UndoRecord) {
	block := m.reg.BlockFor(r.Slot)
	if block == nil {
		return
	}
	slot := r.Slot.Offset()
	switch r.Kind {
	case storage.KindInsert:
		// The tuple never existed: hide it again.
		block.SetAllocated(slot, false)
	case storage.KindDelete:
		// The delete never happened: restore liveness.
		block.SetAllocated(slot, true)
	case storage.KindUpdate:
		// Written in place behind the published record, like the update
		// it undoes; the aborted values' slabs join t's retired list.
		block.WriteRow(slot, r.Delta, &t.retired)
	}
}

// retire removes t from its active shard and queues it for the GC.
func (m *Manager) retire(t *Transaction) {
	sh := &m.activeShards[t.shard]
	sh.mu.Lock()
	delete(sh.active, t.start)
	sh.completed = append(sh.completed, t)
	sh.mu.Unlock()
}

// OldestActiveTs returns a timestamp at or below the smallest start
// timestamp among active transactions — the GC's visibility watermark
// (§3.3).
//
// The clock is read BEFORE the shard scan. Begin draws its start timestamp
// inside the shard latch, so any transaction the scan misses must have
// entered its shard's critical section after we locked that shard — which
// is after the clock read — and therefore has start > cur. Capping the
// result at cur+1 thus lower-bounds every unseen start; without the cap, a
// transaction seen late in the scan could push the watermark above an
// unseen earlier start.
func (m *Manager) OldestActiveTs() uint64 {
	oldest := m.ts.Current() + 1
	for i := range m.activeShards {
		sh := &m.activeShards[i]
		sh.mu.Lock()
		for start := range sh.active {
			if start < oldest {
				oldest = start
			}
		}
		sh.mu.Unlock()
	}
	return oldest
}

// ActiveCount reports the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	n := 0
	for i := range m.activeShards {
		sh := &m.activeShards[i]
		sh.mu.Lock()
		n += len(sh.active)
		sh.mu.Unlock()
	}
	return n
}

// Timestamp draws a fresh timestamp (GC unlink stamps, deferred actions).
func (m *Manager) Timestamp() uint64 { return m.ts.Next() }

// CurrentTime returns the counter without advancing it.
func (m *Manager) CurrentTime() uint64 { return m.ts.Current() }

// AdvanceTimestampTo moves the timestamp counter forward to at least ts
// (recovery re-seeding; see TimestampSource.AdvanceTo). Callers must not
// race it with active transactions — the engine uses it only during
// bootstrap, before serving commits.
func (m *Manager) AdvanceTimestampTo(ts uint64) { m.ts.AdvanceTo(ts) }

// DrainCompleted removes and returns all transactions finished since the
// previous call — the GC's work queue. Order across shards is arbitrary;
// the GC keys on commit timestamps, not completion order.
func (m *Manager) DrainCompleted() []*Transaction {
	var out []*Transaction
	for i := range m.activeShards {
		sh := &m.activeShards[i]
		sh.mu.Lock()
		out = append(out, sh.completed...)
		sh.completed = nil
		sh.mu.Unlock()
	}
	return out
}
