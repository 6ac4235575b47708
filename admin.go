package mainline

import (
	"time"

	"mainline/internal/catalog"
	"mainline/internal/core"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Transform counts transformation pipeline work (compactions, moves,
	// freezes).
	Transform TransformStats
	// Scan counts scan work across all tables: blocks read in place
	// (frozen) vs through the version chain, blocks pruned by zone maps,
	// and tuples emitted to scan callbacks.
	Scan ScanStats
	// ActiveTxns is the number of in-flight transactions.
	ActiveTxns int `metric:"mainline_engine_active_txns"`
	// WAL reports write-ahead log activity (zero-valued with Enabled
	// false when the engine has no log).
	WAL WALStats
	// Checkpoint reports checkpoint subsystem activity (Enabled false
	// without WithDataDir).
	Checkpoint CheckpointStats
	// Tier reports cold-tier activity — evictions, rethaws, block-cache
	// traffic, object-store volume (Enabled false without an object
	// store).
	Tier TierStats
	// Recovery reports what Open's data-directory bootstrap did
	// (zero-valued when the engine started empty).
	Recovery RecoveryStats
	// Index aggregates engine-managed index activity across all tables.
	Index IndexStats
	// Exec counts analytical-executor work (Table.Aggregate / Table.Join):
	// morsels dispatched to workers, partial aggregates merged, workers
	// launched, rows aggregated, and dictionary fast-path blocks.
	Exec ExecStats
	// Server counts network serving-layer activity (zero-valued with
	// Enabled false when no mainline-serve server is attached to the
	// engine; see internal/server).
	Server ServerStats
	// Latency publishes the engine's latency and size distributions as
	// histogram snapshots (commit path, WAL group commit, checkpoint,
	// GC, queries, index reads). See LatencyStats.
	Latency LatencyStats `metric:"-"`
	// Duty publishes background-subsystem duty cycles (GC, transform,
	// WAL flusher, checkpointer).
	Duty DutyStats `metric:"-"`
	// GC publishes garbage-collector progress: retired versions and the
	// watermark lag behind the engine clock.
	GC GCStats
	// Arena publishes the memory hot blocks hold for spilled varlen
	// values, and what has been released from it.
	Arena ArenaStats
}

// ServerStats counts network serving-layer activity: connection and
// request admission, per-plane request traffic, streamed and ingested
// volume, rejection/deadline/reap counts, and whether the server is
// draining. A server registers its Stats method with
// Admin().SetServerStats.
type ServerStats struct {
	// Enabled reports whether a serving layer is attached to this engine.
	Enabled bool
	// Draining reports whether the server is refusing new work.
	Draining bool `metric:"mainline_server_draining"`
	// Sessions is the number of currently connected sessions;
	// SessionsTotal counts every session ever admitted, and
	// SessionsRejected every connection refused by the session cap (or
	// during drain).
	Sessions         int64 `metric:"mainline_server_sessions"`
	SessionsTotal    int64 `metric:"mainline_server_sessions_total"`
	SessionsRejected int64 `metric:"mainline_server_sessions_rejected_total"`
	// Requests counts requests dispatched to handlers;
	// RequestsRejected counts requests refused by the global in-flight
	// cap. DeadlineHits counts requests that died at their deadline.
	Requests         int64 `metric:"mainline_server_requests_total"`
	RequestsRejected int64 `metric:"mainline_server_requests_rejected_total"`
	DeadlineHits     int64 `metric:"mainline_server_deadline_hits_total"`
	// TxnsReaped counts server-side transactions aborted because their
	// session disconnected (or a deadline killed them) before finishing.
	TxnsReaped int64 `metric:"mainline_server_txns_reaped_total"`
	// Transactional-plane request counts by kind.
	BeginOps     int64 `metric:"mainline_server_begin_ops_total"`
	CommitOps    int64 `metric:"mainline_server_commit_ops_total"`
	AbortOps     int64 `metric:"mainline_server_abort_ops_total"`
	InsertOps    int64 `metric:"mainline_server_insert_ops_total"`
	UpdateOps    int64 `metric:"mainline_server_update_ops_total"`
	DeleteOps    int64 `metric:"mainline_server_delete_ops_total"`
	SelectOps    int64 `metric:"mainline_server_select_ops_total"`
	IndexReadOps int64 `metric:"mainline_server_index_read_ops_total"`
	// Analytical-plane request counts and volumes: DoGet streams engine
	// blocks out as Arrow IPC; DoPut ingests client record batches
	// through the transactional write path.
	DoGetOps      int64 `metric:"mainline_server_doget_ops_total"`
	DoPutOps      int64 `metric:"mainline_server_doput_ops_total"`
	BytesStreamed int64 `metric:"mainline_server_bytes_streamed_total"`
	BytesIngested int64 `metric:"mainline_server_bytes_ingested_total"`
	RowsStreamed  int64 `metric:"mainline_server_rows_streamed_total"`
	RowsIngested  int64 `metric:"mainline_server_rows_ingested_total"`
}

// IndexStats aggregates engine-managed index activity: tree sizes, read
// traffic, and how much MVCC re-verification the reads performed. What
// the last recovery's rebuild cost is in RecoveryStats.
type IndexStats struct {
	// Indexes is the number of registered indexes; Entries sums their live
	// (key, slot) pairs, stale entries awaiting deferred removal included.
	Indexes int   `metric:"mainline_engine_indexes"`
	Entries int64 `metric:"mainline_engine_index_entries"`
	// Lookups counts point reads (GetBy); RangeScans counts RangeBy /
	// PrefixBy scans.
	Lookups    int64 `metric:"mainline_engine_index_lookups_total"`
	RangeScans int64 `metric:"mainline_engine_index_range_scans_total"`
	// SlotsReverified counts candidate slots re-checked through the
	// version chain; StaleFiltered counts the candidates that check
	// rejected (entry pointing at a version the reader cannot see, or at a
	// re-keyed tuple). A high stale ratio means the GC is lagging the
	// delete rate.
	SlotsReverified int64 `metric:"mainline_engine_index_slots_reverified_total"`
	StaleFiltered   int64 `metric:"mainline_engine_index_stale_filtered_total"`
	// EntriesPublished counts insertions published at commit;
	// EntriesRetired counts deferred removals that have physically run.
	EntriesPublished int64 `metric:"mainline_engine_index_entries_published_total"`
	EntriesRetired   int64 `metric:"mainline_engine_index_entries_retired_total"`
}

// WALStats counts write-ahead log activity.
type WALStats struct {
	// Enabled reports whether the engine was opened with a WAL.
	Enabled bool
	// Txns is the number of transactions whose commit records were
	// flushed.
	Txns int64 `metric:"mainline_engine_wal_txns_total"`
	// Bytes is the total log bytes written.
	Bytes int64 `metric:"mainline_engine_wal_bytes_total"`
	// Syncs is the number of fsyncs issued (Txns/Syncs is the achieved
	// group-commit size).
	Syncs int64 `metric:"mainline_engine_wal_syncs_total"`
}

// CheckpointStats counts checkpoint subsystem activity.
type CheckpointStats struct {
	// Enabled reports whether the engine was opened with WithDataDir.
	Enabled bool
	// Taken is the number of checkpoints installed (the bootstrap
	// re-anchor included); Failed counts attempts that errored.
	Taken  int64 `metric:"mainline_engine_checkpoints_taken_total"`
	Failed int64 `metric:"mainline_engine_checkpoints_failed_total"`
	// Rows totals the rows captured across all checkpoints; BytesWritten
	// totals the objects they newly wrote (content-addressed objects the
	// store already held cost nothing).
	Rows         int64 `metric:"mainline_engine_checkpoint_rows_total"`
	BytesWritten int64 `metric:"mainline_engine_checkpoint_bytes_written_total"`
	// SegmentsTruncated is the number of WAL segment files deleted
	// because a checkpoint wholly covered them.
	SegmentsTruncated int64 `metric:"mainline_engine_checkpoint_segments_truncated_total"`
	// LastSeq and LastSnapshotTs identify the newest checkpoint.
	LastSeq        uint64 `metric:"mainline_engine_checkpoint_last_seq"`
	LastSnapshotTs uint64 `metric:"mainline_engine_checkpoint_last_snapshot_ts"`
}

// RecoveryStats records what Open's data-directory bootstrap did. All
// fields are fixed once Open returns.
type RecoveryStats struct {
	// Bootstrapped reports whether any prior state (checkpoint or WAL)
	// was found and loaded.
	Bootstrapped bool `metric:"mainline_engine_recovery_bootstrapped"`
	// CheckpointSeq and CheckpointRows describe the checkpoint the
	// bootstrap anchored on (zero when none existed).
	CheckpointSeq  uint64 `metric:"mainline_engine_recovery_checkpoint_seq"`
	CheckpointRows int64  `metric:"mainline_engine_recovery_checkpoint_rows"`
	// CheckpointFallbacks counts newer checkpoints skipped because an
	// object's size or CRC-32C, or a table schema, failed verification.
	CheckpointFallbacks int `metric:"mainline_engine_recovery_checkpoint_fallbacks"`
	// TailSegments is how many WAL segment files were scanned.
	TailSegments int `metric:"mainline_engine_recovery_tail_segments"`
	// TailTxnsApplied counts committed transactions replayed from the WAL
	// tail — with a fresh checkpoint this is only the post-checkpoint
	// work, the quantity the subsystem exists to bound.
	TailTxnsApplied int `metric:"mainline_engine_recovery_tail_txns_applied"`
	// TailTxnsSkipped counts logged transactions already covered by the
	// checkpoint (their segments straddled the snapshot timestamp).
	TailTxnsSkipped int `metric:"mainline_engine_recovery_tail_txns_skipped"`
	// TailRecordsApplied counts redo records applied from the tail.
	TailRecordsApplied int `metric:"mainline_engine_recovery_tail_records_applied"`
	// TornTail reports whether any segment ended mid-record (expected
	// after a crash; the clean prefix was recovered).
	TornTail bool `metric:"mainline_engine_recovery_torn_tail"`
	// TornBytesTruncated is how many garbage tail bytes the bootstrap cut
	// off the torn segment while repairing it (Postgres/RocksDB-style
	// tail tolerance) — nonzero values on a machine that did not crash
	// deserve investigation.
	TornBytesTruncated int64 `metric:"mainline_engine_recovery_torn_bytes_truncated"`
	// ReanchorSeq is the checkpoint the bootstrap installed afterwards to
	// re-anchor the slot space (0 when the directory was fresh).
	ReanchorSeq uint64 `metric:"mainline_engine_recovery_reanchor_seq"`
	// IndexesRebuilt / IndexEntriesRebuilt / IndexRebuildDuration describe
	// the engine-managed index rebuild: every index declared in the
	// persisted catalog is re-created and backfilled from the recovered
	// tables after checkpoint restore + WAL tail replay.
	IndexesRebuilt       int           `metric:"mainline_engine_recovery_indexes_rebuilt"`
	IndexEntriesRebuilt  int64         `metric:"mainline_engine_recovery_index_entries_rebuilt"`
	IndexRebuildDuration time.Duration `metric:"mainline_engine_recovery_index_rebuild_seconds"`
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Transform:  e.transformer.Stats(),
		ActiveTxns: e.mgr.ActiveCount(),
		Recovery:   e.recovery,
		Exec:       e.execCounters.Snapshot(),
	}
	for _, t := range e.cat.Tables() {
		s.Scan.Add(t.ScanStatsSnapshot())
		for _, ti := range t.Indexes() {
			c := ti.Counters()
			s.Index.Indexes++
			s.Index.Entries += c.Entries
			s.Index.Lookups += c.Lookups
			s.Index.RangeScans += c.RangeScans
			s.Index.SlotsReverified += c.SlotsReverified
			s.Index.StaleFiltered += c.StaleFiltered
			s.Index.EntriesPublished += c.EntriesPublished
			s.Index.EntriesRetired += c.EntriesRetired
		}
	}
	if e.logMgr != nil {
		s.WAL.Enabled = true
		s.WAL.Txns, s.WAL.Bytes, s.WAL.Syncs = e.logMgr.Stats()
	}
	if fn := e.serverStatsFn.Load(); fn != nil {
		s.Server = (*fn)()
		s.Server.Enabled = true
	}
	s.Latency = LatencyStats{
		Commit:          e.obs.commit.Snapshot(),
		CommitCritical:  e.obs.commitCrit.Snapshot(),
		CommitLatchWait: e.obs.commitLatch.Snapshot(),
		BeginStampWait:  e.obs.beginStamp.Snapshot(),
		WALSync:         e.obs.walSync.Snapshot(),
		WALGroupTxns:    e.obs.walGroupTxns.Snapshot(),
		WALGroupBytes:   e.obs.walGroupBytes.Snapshot(),
		Checkpoint:      e.obs.ckpt.Snapshot(),
		CheckpointTable: e.obs.ckptTable.Snapshot(),
		GCPass:          e.obs.gcPass.Snapshot(),
		Query:           e.obs.query.Snapshot(),
		IndexLookup:     e.obs.indexLookup.Snapshot(),
	}
	s.Duty = DutyStats{
		GC:         e.obs.gcDuty.Snapshot(),
		Transform:  e.obs.transformDuty.Snapshot(),
		WALFlush:   e.obs.walDuty.Snapshot(),
		Checkpoint: e.obs.ckptDuty.Snapshot(),
	}
	s.Tier = e.tier.Stats()
	s.GC.Unlinked, s.GC.Deallocated = e.collector.Totals()
	s.GC.WatermarkLag = e.collector.WatermarkLag()
	s.Arena.HeldBytes, s.Arena.ReleasedBytes = e.mgr.Registry().ArenaBytes()
	if e.opts.DataDir != "" {
		s.Checkpoint = CheckpointStats{
			Enabled:           true,
			Taken:             e.ckptTaken.Load(),
			Failed:            e.ckptFailed.Load(),
			Rows:              e.ckptRows.Load(),
			BytesWritten:      e.ckptBytes.Load(),
			SegmentsTruncated: e.ckptSegsTruncated.Load(),
			LastSeq:           e.ckptLastSeq.Load(),
			LastSnapshotTs:    e.ckptLastTs.Load(),
		}
	}
	return s
}

// Admin exposes the wired subsystems that in-module tooling (workload
// loaders, export servers, figure harnesses) programs against directly.
// It replaces the old Engine.Internals quadruple with the two capabilities
// those consumers actually use; external users should not need it.
type Admin struct {
	eng *Engine
}

// Admin returns the engine's administrative surface.
func (e *Engine) Admin() Admin { return Admin{eng: e} }

// TxnManager returns the transaction manager (workload drivers that
// operate on internal tables).
func (a Admin) TxnManager() *txn.Manager { return a.eng.mgr }

// Catalog returns the table registry (export servers, loaders).
func (a Admin) Catalog() *catalog.Catalog { return a.eng.cat }

// ScanArgs resolves a column list (nil = all) and predicate against t into
// the projection and compiled predicate the catalog's snapshot producer
// takes — the filtered DoGet's path onto it.
func (a Admin) ScanArgs(t *Table, cols []string, pred *Pred) (*storage.Projection, *core.Predicate, error) {
	return t.scanArgs(cols, pred)
}

// SetServerStats registers the serving layer's counter snapshot;
// Stats().Server reports it with Enabled set. At most one server's
// counters are visible at a time — a second registration replaces the
// first. detach removes this registration only while it is still the
// current one, so a server that closes never detaches a later one.
func (a Admin) SetServerStats(fn func() ServerStats) (detach func()) {
	reg := &fn
	a.eng.serverStatsFn.Store(reg)
	return func() { a.eng.serverStatsFn.CompareAndSwap(reg, nil) }
}

// SimulateCrash abandons the engine as a process kill would: background
// loops stop WITHOUT final flushes or checkpoints, queued-but-unacked
// commits are dropped (their durability callbacks fail — a real kill
// would vaporize the waiters outright), the data directory lock is
// released so a successor can open the same directory in-process, and
// the engine refuses further use as if Closed. Nothing is synced,
// truncated, or checkpointed on the way out: the on-disk state is a
// crash image. For crash-recovery tests and the chaos harness.
func (a Admin) SimulateCrash() {
	e := a.eng
	e.stopCheckpointer()
	e.stopTierSweeper()
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	if e.opts.Background {
		e.transformer.Stop()
		e.collector.Stop()
	}
	if e.logMgr != nil {
		e.logMgr.Abandon()
	}
	if e.dirLock != nil {
		e.dirLock()
		e.dirLock = nil
	}
}
