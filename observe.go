package mainline

import (
	"time"

	"mainline/internal/obs"
	"mainline/internal/txn"
	"mainline/internal/wal"
)

// Observability re-exports: one package to program against.
type (
	// HistSnapshot is an immutable latency/size histogram snapshot with
	// Quantile(p)/Mean()/Merge().
	HistSnapshot = obs.HistSnapshot
	// DutySnapshot reports a background subsystem's duty cycle.
	DutySnapshot = obs.DutySnapshot
	// SlowOp is one captured slow-operation span (txn id, request kind,
	// per-phase timings).
	SlowOp = obs.Span
	// SlowOpPhase is one timed segment of a SlowOp.
	SlowOpPhase = obs.Phase
)

// slowOpRingCap bounds the in-memory slow-op ring; old spans are evicted
// newest-wins.
const slowOpRingCap = 256

// LatencyStats publishes the engine's latency and size distributions as
// histogram snapshots (Stats().Latency). Durations are in nanoseconds —
// use QuantileDuration; WALGroupTxns/WALGroupBytes are raw counts/bytes.
type LatencyStats struct {
	// Commit is public Txn.Commit end to end, durable wait included.
	Commit HistSnapshot
	// CommitCritical is the manager's commit critical path (latch
	// acquisition through retire, excluding the durability wait).
	CommitCritical HistSnapshot
	// CommitLatchWait is time spent acquiring the commit shard latch.
	CommitLatchWait HistSnapshot
	// BeginStampWait is Begin's stamping barrier, recorded only for
	// Begins that actually spun.
	BeginStampWait HistSnapshot
	// WALSync is the write+fsync wall time per commit group.
	WALSync HistSnapshot
	// WALGroupTxns / WALGroupBytes are the per-fsync group size
	// distributions (transactions and bytes).
	WALGroupTxns  HistSnapshot
	WALGroupBytes HistSnapshot
	// Checkpoint is whole-checkpoint duration; CheckpointTable is the
	// per-table capture duration within checkpoints.
	Checkpoint      HistSnapshot
	CheckpointTable HistSnapshot
	// GCPass is garbage-collection pass duration.
	GCPass HistSnapshot
	// Query is analytical-executor duration (Aggregate / Join).
	Query HistSnapshot
	// IndexLookup is engine-managed index read duration (GetBy /
	// RangeBy / PrefixBy).
	IndexLookup HistSnapshot
}

// DutyStats publishes background-subsystem duty cycles (Stats().Duty).
type DutyStats struct {
	GC         DutySnapshot
	Transform  DutySnapshot
	WALFlush   DutySnapshot
	Checkpoint DutySnapshot
}

// GCStats publishes garbage-collector progress (Stats().GC).
type GCStats struct {
	// Unlinked / Deallocated are lifetime retired-version counts.
	Unlinked    int64 `metric:"mainline_engine_gc_unlinked_total"`
	Deallocated int64 `metric:"mainline_engine_gc_deallocated_total"`
	// WatermarkLag is epoch − oldest-active as of the latest GC pass:
	// how far version reclamation trails the clock. A stuck snapshot
	// shows up here as unbounded growth.
	WatermarkLag uint64 `metric:"mainline_engine_gc_watermark_lag"`
}

// engineObs bundles the engine's always-on instruments. Everything is
// created at Open — instrumentation overhead is a few time.Now() calls
// per operation (measured <2% on the durable commit bench, see
// DESIGN.md "Observability").
type engineObs struct {
	reg  *obs.Registry
	ring *obs.TraceRing

	commit        *obs.Histogram
	commitCrit    *obs.Histogram
	commitLatch   *obs.Histogram
	beginStamp    *obs.Histogram
	walSync       *obs.Histogram
	walGroupTxns  *obs.Histogram
	walGroupBytes *obs.Histogram
	ckpt          *obs.Histogram
	ckptTable     *obs.Histogram
	gcPass        *obs.Histogram
	query         *obs.Histogram
	indexLookup   *obs.Histogram

	gcDuty        *obs.Duty
	transformDuty *obs.Duty
	walDuty       *obs.Duty
	ckptDuty      *obs.Duty
}

func newEngineObs(threshold time.Duration) *engineObs {
	r := obs.NewRegistry(slowOpRingCap, threshold)
	h := func(name, help, unit string) *obs.Histogram {
		return r.NewHistogram(name, help, unit, "")
	}
	return &engineObs{
		reg:  r,
		ring: r.Ring(),
		commit: h("mainline_commit_seconds",
			"Txn.Commit end to end, durable wait included", "seconds"),
		commitCrit: h("mainline_commit_critical_seconds",
			"commit critical path: latch through retire", "seconds"),
		commitLatch: h("mainline_commit_latch_wait_seconds",
			"commit shard latch acquisition wait", "seconds"),
		beginStamp: h("mainline_begin_stamp_wait_seconds",
			"Begin stamping barrier wait (only Begins that spun)", "seconds"),
		walSync: h("mainline_wal_sync_seconds",
			"WAL group write+fsync wall time", "seconds"),
		walGroupTxns: h("mainline_wal_group_txns",
			"transactions coalesced per fsync", ""),
		walGroupBytes: h("mainline_wal_group_bytes",
			"bytes written per fsync", ""),
		ckpt: h("mainline_checkpoint_seconds",
			"whole-checkpoint duration", "seconds"),
		ckptTable: h("mainline_checkpoint_table_seconds",
			"per-table capture duration within checkpoints", "seconds"),
		gcPass: h("mainline_gc_pass_seconds",
			"garbage-collection pass duration", "seconds"),
		query: h("mainline_query_seconds",
			"analytical executor duration (Aggregate/Join)", "seconds"),
		indexLookup: h("mainline_index_lookup_seconds",
			"engine-managed index read duration", "seconds"),
		gcDuty:        r.NewDuty("gc"),
		transformDuty: r.NewDuty("transform"),
		walDuty:       r.NewDuty("wal_flush"),
		ckptDuty:      r.NewDuty("checkpoint"),
	}
}

// wire installs the instruments into the subsystems that exist at
// engine-assembly time (the WAL attaches later, see wireWAL).
func (o *engineObs) wire(e *Engine) {
	e.mgr.SetMetrics(txn.Metrics{
		CommitLatency:   o.commitCrit,
		CommitLatchWait: o.commitLatch,
		BeginStampWait:  o.beginStamp,
	})
	e.collector.SetMetrics(o.gcPass, o.gcDuty)
	e.transformer.SetDuty(o.transformDuty)
	e.execCounters.SetLatency(o.query)
}

// wireWAL installs the group-commit instruments; called after the
// data-directory bootstrap created the log manager.
func (o *engineObs) wireWAL(l *wal.LogManager) {
	l.SetMetrics(wal.Metrics{
		SyncLatency: o.walSync,
		GroupTxns:   o.walGroupTxns,
		GroupBytes:  o.walGroupBytes,
		FlushDuty:   o.walDuty,
	})
}

// Obs returns the engine's observability registry: the serving layer
// renders it at /metrics and feeds the slow-op ring from request
// handling.
func (a Admin) Obs() *obs.Registry { return a.eng.obs.reg }

// SlowOps returns the captured slow-op spans, newest first. Ops are
// captured when they exceed the WithSlowOpThreshold threshold (default
// 100ms); the ring holds the most recent 256.
func (e *Engine) SlowOps() []SlowOp { return e.obs.ring.Snapshot() }

// SetSlowOpThreshold changes the slow-op capture threshold at runtime.
func (e *Engine) SetSlowOpThreshold(d time.Duration) { e.obs.ring.SetThreshold(d) }

// HealthStats is the operational health summary behind /healthz: how far
// the durable and reclamation machinery trail the clock. Fields tagged
// "-" repeat a series Stats or the registry already exports.
type HealthStats struct {
	// WALTruncationLag is engine-clock ticks since the newest
	// checkpoint's snapshot (since ts 0 before the first one) — the
	// un-truncated WAL span that a restart would replay. Zero without a
	// data directory.
	WALTruncationLag uint64 `metric:"mainline_engine_wal_truncation_lag"`
	// LastCheckpointAge is wall time since the last installed
	// checkpoint; -1s when no checkpoint has ever been taken.
	LastCheckpointAge time.Duration `metric:"mainline_engine_last_checkpoint_age_seconds"`
	// GCWatermarkLag is epoch − oldest-active as of the latest GC pass.
	GCWatermarkLag uint64 `metric:"-"`
	// SlowOps is the total number of slow-op spans ever captured.
	SlowOps int64 `metric:"-"`
	// Degraded reports the engine has sealed itself read-only after a WAL
	// failure; DegradedReason carries the root cause. See ErrDegraded.
	Degraded       bool `metric:"mainline_engine_degraded"`
	DegradedReason string
}

// Health reports the engine's operational health summary.
func (e *Engine) Health() HealthStats {
	h := HealthStats{
		GCWatermarkLag:    e.collector.WatermarkLag(),
		SlowOps:           e.obs.ring.Captured(),
		LastCheckpointAge: -time.Second,
	}
	if wall := e.ckptLastWall.Load(); wall > 0 {
		h.LastCheckpointAge = time.Since(time.Unix(0, wall))
	}
	if degraded, cause := e.Degraded(); degraded {
		h.Degraded = true
		h.DegradedReason = cause.Error()
	}
	if e.opts.DataDir != "" {
		// Without a checkpoint the whole log is un-truncated: the lag
		// runs from ts 0.
		if cur, last := e.mgr.CurrentTime(), e.ckptLastTs.Load(); cur > last {
			h.WALTruncationLag = cur - last
		}
	}
	return h
}
