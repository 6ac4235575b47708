// Package gc implements the paper's garbage collector (§3.3): a two-phase
// unlink-then-deallocate pass over completed transactions driven by the
// oldest-active-transaction watermark, plus the epoch-protection style
// deferred-action framework (§4.4) that the transformation pipeline uses to
// reclaim pre-gather varlen memory, and the access-statistics piggyback that
// identifies cooling blocks (§4.2) without touching the transaction
// critical path.
package gc

import (
	"sync"
	"sync/atomic"
	"time"

	"mainline/internal/obs"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// AccessObserver receives modification observations harvested from undo
// records during GC runs. The transformation pipeline registers one to
// detect blocks that have stopped changing. The epoch argument is the GC
// invocation timestamp — the paper's "GC epoch" substitute for exact
// modification times.
type AccessObserver interface {
	ObserveModification(slot storage.TupleSlot, kind storage.RecordKind, epoch uint64)
}

// deferredAction is a callback that may run once every transaction active
// at registration time has finished.
type deferredAction struct {
	ts uint64
	fn func()
}

// Stats summarizes one GC invocation.
type Stats struct {
	// Drained is the number of completed transactions pulled this run.
	Drained int
	// Unlinked is the number of transactions whose records were unlinked.
	Unlinked int
	// Deallocated is the number of transactions whose undo segments were
	// returned to the pool.
	Deallocated int
	// ChainsTruncated counts version chains truncated this run.
	ChainsTruncated int
	// ActionsRun counts deferred actions executed.
	ActionsRun int
}

// GarbageCollector prunes version chains and recycles undo buffers. One
// collector serves one transaction manager; RunOnce may be called manually
// (tests, benchmarks) or from the background loop started by Start.
type GarbageCollector struct {
	mgr *txn.Manager
	reg *storage.Registry

	mu sync.Mutex
	// pendingUnlink holds completed transactions whose records are still
	// visible to some active transaction.
	pendingUnlink []*txn.Transaction
	// pendingDealloc holds unlinked transactions waiting out their epoch.
	pendingDealloc []*txn.Transaction
	// actions is ordered by registration timestamp (monotone).
	actions []deferredAction

	observer AccessObserver

	stopCh  chan struct{}
	doneCh  chan struct{}
	started atomic.Bool

	// Totals since creation, for observability.
	totalUnlinked    atomic.Int64
	totalDeallocated atomic.Int64

	// watermarkLag is epoch − oldest-active from the latest pass: how far
	// the GC watermark trails the clock, the paper's long-running-snapshot
	// pressure signal (a stuck reader shows up as unbounded lag).
	watermarkLag atomic.Uint64

	// passHist/duty are optional instruments (see SetMetrics).
	passHist *obs.Histogram
	duty     *obs.Duty
}

// SetMetrics installs the pass-duration histogram and duty meter (either
// may be nil). Call before Start.
func (g *GarbageCollector) SetMetrics(pass *obs.Histogram, duty *obs.Duty) {
	g.passHist = pass
	g.duty = duty
}

// WatermarkLag reports epoch − oldest-active as of the latest pass.
func (g *GarbageCollector) WatermarkLag() uint64 { return g.watermarkLag.Load() }

// New creates a collector for the manager and installs it as the manager's
// index deferrer, so committed index-entry removals wait out every snapshot
// active at commit time before the entries physically leave the trees.
func New(mgr *txn.Manager) *GarbageCollector {
	g := &GarbageCollector{mgr: mgr, reg: mgr.Registry()}
	mgr.SetIndexDeferrer(g)
	return g
}

// SetObserver registers the access observer (nil disables observation).
func (g *GarbageCollector) SetObserver(o AccessObserver) { g.observer = o }

// RegisterAction schedules fn to run once every transaction alive now has
// finished — the paper's timestamped deferred action (§4.4). Safe to call
// from any goroutine.
func (g *GarbageCollector) RegisterAction(fn func()) {
	ts := g.mgr.Timestamp()
	g.mu.Lock()
	g.actions = append(g.actions, deferredAction{ts: ts, fn: fn})
	g.mu.Unlock()
}

// RunOnce performs one collection pass and reports what it did.
func (g *GarbageCollector) RunOnce() Stats {
	var st Stats
	var t0 time.Time
	if g.passHist != nil || g.duty != nil {
		t0 = time.Now()
	}
	oldest := g.mgr.OldestActiveTs()
	epoch := g.mgr.Timestamp()
	if epoch > oldest {
		g.watermarkLag.Store(epoch - oldest)
	} else {
		g.watermarkLag.Store(0)
	}

	// Phase 0: run deferred actions whose registration epoch has passed.
	g.mu.Lock()
	nRun := 0
	for nRun < len(g.actions) && g.actions[nRun].ts < oldest {
		nRun++
	}
	toRun := g.actions[:nRun:nRun]
	g.actions = g.actions[nRun:]
	g.mu.Unlock()
	for _, a := range toRun {
		a.fn()
		st.ActionsRun++
	}

	// Phase 1: deallocate transactions whose unlink epoch has passed: no
	// active transaction can still be traversing their records, nor hold
	// a handle to an arena slab their in-place writes unlinked.
	g.mu.Lock()
	var stillWaiting []*txn.Transaction
	for _, t := range g.pendingDealloc {
		if t.UnlinkTs() < oldest {
			t.ReleaseUndo()
			t.ReleaseSlabs()
			st.Deallocated++
		} else {
			stillWaiting = append(stillWaiting, t)
		}
	}
	g.pendingDealloc = stillWaiting
	g.mu.Unlock()
	g.totalDeallocated.Add(int64(st.Deallocated))

	// Phase 2: drain newly completed transactions; harvest access
	// observations; unlink those no longer visible to anyone.
	drained := g.mgr.DrainCompleted()
	st.Drained = len(drained)
	if g.observer != nil {
		for _, t := range drained {
			t.UndoIterate(func(r *storage.UndoRecord) bool {
				g.observer.ObserveModification(r.Slot, r.Kind, epoch)
				return true
			})
		}
	}

	g.mu.Lock()
	work := append(g.pendingUnlink, drained...)
	g.pendingUnlink = nil
	g.mu.Unlock()

	var unlinkable []*txn.Transaction
	var keep []*txn.Transaction
	chains := make(map[storage.TupleSlot]struct{})
	for _, t := range work {
		// A transaction's records become invisible once its commit (or
		// abort) timestamp falls below the watermark.
		if t.CommitTs() < oldest {
			unlinkable = append(unlinkable, t)
			t.UndoIterate(func(r *storage.UndoRecord) bool {
				chains[r.Slot] = struct{}{}
				return true
			})
		} else {
			keep = append(keep, t)
		}
	}

	// Truncate each affected chain exactly once (paper: avoids the
	// quadratic find-and-unlink per record).
	for slot := range chains {
		if g.truncateChain(slot, oldest) {
			st.ChainsTruncated++
		}
	}

	unlinkTs := g.mgr.Timestamp()
	for _, t := range unlinkable {
		t.SetUnlinkTs(unlinkTs)
	}
	st.Unlinked = len(unlinkable)
	g.totalUnlinked.Add(int64(st.Unlinked))

	g.mu.Lock()
	g.pendingUnlink = keep
	g.pendingDealloc = append(g.pendingDealloc, unlinkable...)
	g.mu.Unlock()
	if !t0.IsZero() {
		d := time.Since(t0)
		g.passHist.Record(d)
		g.duty.Observe(d)
	}
	return st
}

// truncateChain removes the invisible suffix of slot's version chain:
// records stamped at or before the watermark are never applied by any
// active or future reader, so the chain is cut after the last record newer
// than the watermark. Reports whether anything was removed.
func (g *GarbageCollector) truncateChain(slot storage.TupleSlot, oldest uint64) bool {
	block := g.reg.BlockFor(slot)
	if block == nil {
		return false
	}
	offset := slot.Offset()
	head := block.VersionPtr(offset)
	if head == nil {
		return false
	}
	if txn.Visible(head.Timestamp(), oldest-1) {
		// Head itself is visible to the oldest reader: nobody applies any
		// delta on this chain; drop it entirely. CAS so a racing writer
		// installing a new head wins and we retry next run.
		return block.CASVersionPtr(offset, head, nil)
	}
	// Keep the prefix of records still needed (ts newer than watermark or
	// uncommitted); cut after the last kept record.
	last := head
	for {
		next := last.Next()
		if next == nil {
			return false // nothing invisible to remove
		}
		if txn.Visible(next.Timestamp(), oldest-1) {
			// next and everything after are unneeded.
			return last.CompareAndSwapNext(next, nil)
		}
		last = next
	}
}

// Pending reports transactions queued for unlink and deallocation (tests).
func (g *GarbageCollector) Pending() (unlink, dealloc int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pendingUnlink), len(g.pendingDealloc)
}

// Totals returns lifetime unlink/deallocation counters.
func (g *GarbageCollector) Totals() (unlinked, deallocated int64) {
	return g.totalUnlinked.Load(), g.totalDeallocated.Load()
}

// Start launches the background loop with the given period (the paper runs
// GC every ~10 ms). Stop halts it.
func (g *GarbageCollector) Start(period time.Duration) {
	if g.started.Swap(true) {
		return
	}
	g.stopCh = make(chan struct{})
	g.doneCh = make(chan struct{})
	go func() {
		defer close(g.doneCh)
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-g.stopCh:
				return
			case <-ticker.C:
				g.RunOnce()
			}
		}
	}()
}

// Stop halts the background loop and runs a final pass.
func (g *GarbageCollector) Stop() {
	if !g.started.Swap(false) {
		return
	}
	close(g.stopCh)
	<-g.doneCh
	g.RunOnce()
}
