package mainline

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mainline/internal/checkpoint"
	"mainline/internal/checkpoint/manifestlog"
	"mainline/internal/fsutil"
	"mainline/internal/objstore"
	"mainline/internal/storage"
	"mainline/internal/wal"
)

// Data directory layout:
//
//	<dir>/catalog.json      — persisted schema catalog (atomic rename)
//	<dir>/wal/wal-<seq>.log — rotating WAL segments
//	<dir>/MANIFEST.log      — checkpoint versions (see internal/checkpoint)
//	<dir>/objects/          — the checkpoint objects, unless an object
//	                          store is configured (then they live there)
func (e *Engine) walDir() string      { return filepath.Join(e.opts.DataDir, "wal") }
func (e *Engine) catalogPath() string { return filepath.Join(e.opts.DataDir, "catalog.json") }

// defaultKeepVersions is how many checkpoint versions an engine without an
// object store keeps: the newest plus one fallback for verification
// failures. With an object store, history is kept until PruneSnapshots.
const defaultKeepVersions = 2

// CheckpointInfo summarizes one checkpoint taken via Engine.Checkpoint.
type CheckpointInfo struct {
	// Seq is the checkpoint sequence number.
	Seq uint64
	// SnapshotTs is the snapshot timestamp the checkpoint captured: every
	// commit at or below it is in the checkpoint files, everything beyond
	// stays in the WAL tail.
	SnapshotTs uint64
	// Tables and Rows count what was captured.
	Tables int
	Rows   int64
	// BytesWritten is the size of the objects the checkpoint newly wrote.
	BytesWritten int64
	// SegmentsRemoved is how many WAL segments the checkpoint released.
	SegmentsRemoved int
}

// Checkpoint takes a durable snapshot now: every table is scanned through
// a read-only transaction and written once, as content-addressed Arrow
// chunk and slot objects committed by one manifest-log version record;
// then WAL segments wholly covered by the previous snapshot are deleted.
// Returns ErrNoDataDir without WithDataDir and ErrEngineClosed after
// Close. Safe to call concurrently with transactions; concurrent
// Checkpoint calls serialize.
func (e *Engine) Checkpoint() (CheckpointInfo, error) {
	if e.opts.DataDir == "" {
		return CheckpointInfo{}, ErrNoDataDir
	}
	// Hold off Close for the duration so the log manager stays usable for
	// truncation.
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		return CheckpointInfo{}, ErrEngineClosed
	}
	// A degraded engine must not checkpoint: the snapshot could capture
	// commits the wedged log never made durable, and the subsequent WAL
	// truncation would then delete the only durable copy of older state.
	if e.degraded.Load() {
		return CheckpointInfo{}, e.degradedErr()
	}
	return e.checkpointLocked()
}

// checkpointLocked runs one checkpoint under the checkpoint mutex; the
// caller holds closeMu.RLock (or is the bootstrap, before Open returns).
func (e *Engine) checkpointLocked() (CheckpointInfo, error) {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	// The WAL is truncated only through the PREVIOUS retained checkpoint's
	// snapshot, not the new one's: recovery falls back one checkpoint on
	// checksum failure, and the fallback is only sound while the log still
	// covers everything after the older snapshot. Log retention is
	// therefore one full checkpoint interval, and a checkpoint's segments
	// are released by its successor.
	prevSnapshot := e.ckptLastTs.Load()
	t0 := time.Now()
	info, err := checkpoint.Take(e.manifest, e.objects, e.cat, e.mgr, e.obs.ckptTable)
	if err != nil {
		e.ckptFailed.Add(1)
		return CheckpointInfo{}, err
	}
	if e.tier == nil {
		// Best-effort: a failed prune only over-retains versions; the next
		// checkpoint prunes again.
		_, _, _ = checkpoint.Prune(e.manifest, e.objects, defaultKeepVersions)
	}
	d := time.Since(t0)
	e.obs.ckpt.Record(d)
	e.obs.ckptDuty.Observe(d)
	e.ckptLastWall.Store(time.Now().UnixNano())
	removed := 0
	if e.logMgr != nil {
		// A truncation error leaves extra (harmless, replayable) segments
		// behind; the checkpoint itself is installed, so don't fail.
		removed, _ = e.logMgr.Truncate(prevSnapshot)
	}
	e.ckptTaken.Add(1)
	e.ckptRows.Add(info.Rows)
	e.ckptBytes.Add(info.BytesWritten)
	e.ckptSegsTruncated.Add(int64(removed))
	e.ckptLastSeq.Store(info.Seq)
	e.ckptLastTs.Store(info.SnapshotTs)
	return CheckpointInfo{
		Seq:             info.Seq,
		SnapshotTs:      info.SnapshotTs,
		Tables:          info.Tables,
		Rows:            info.Rows,
		BytesWritten:    info.BytesWritten,
		SegmentsRemoved: removed,
	}, nil
}

// bootstrapDataDir brings the engine up from its data directory: rehydrate
// the schema catalog, open the manifest log and load its newest valid
// version, stream-replay the WAL tail beyond its snapshot timestamp,
// re-seed the timestamp counter above every retained log record, open the
// segmented WAL for new commits, and finally re-anchor with a fresh
// checkpoint. Open sets up the cold tier first, so an engine with an
// object store restores from it and its re-anchor commits there too.
//
// The re-anchor step is load-bearing, not an optimization: WAL records
// address tuples by physical slot, and a rebuild necessarily assigns new
// slots. Taking a checkpoint (whose slot objects record the NEW slots)
// and truncating the old segments establishes the invariant that retained
// WAL segments only ever reference the slot space of the newest
// checkpoint — which is exactly what the next recovery will seed its slot
// map from.
func (e *Engine) bootstrapDataDir() error {
	o := &e.opts
	for _, dir := range []string{o.DataDir, e.walDir()} {
		if err := e.fsys.MkdirAll(dir); err != nil {
			return fmt.Errorf("mainline: creating data dir: %w", err)
		}
	}
	// Exclusive ownership: a second process opening the same directory
	// would interleave an independent timestamp counter and slot lineage
	// into the WAL. flock releases on process death, so no stale locks.
	release, err := fsutil.LockDir(o.DataDir)
	if err != nil {
		return fmt.Errorf("mainline: %w", err)
	}
	e.dirLock = release
	// A directory written by the retired per-table checkpoint format has
	// no manifest version to anchor on, and its WAL was truncated against
	// those checkpoints: replaying the tail alone would silently lose data.
	if _, err := os.Stat(filepath.Join(o.DataDir, "checkpoints")); err == nil {
		return fmt.Errorf("mainline: %s holds checkpoints in a retired format this version cannot read", o.DataDir)
	}

	// 1. Schema catalog.
	restoredTables, err := e.cat.Load(e.catalogPath())
	if err != nil {
		return err
	}
	for _, t := range restoredTables {
		e.observer.Watch(t.DataTable)
		if e.tier != nil {
			t.DataTable.AttachColdTier(e.tier)
		}
	}

	// 2. Manifest log, checkpoint objects, newest valid version. The log
	// tolerates (and repairs) a torn or corrupted tail.
	if e.manifest, err = manifestlog.Open(e.fsys, filepath.Join(o.DataDir, manifestlog.LogName)); err != nil {
		return err
	}
	if e.tier != nil {
		e.objects = e.tier.Store()
	} else if e.objects, err = objstore.NewFSStore(filepath.Join(o.DataDir, "objects"), e.fsys); err != nil {
		return err
	}
	var (
		afterTs uint64
		slotMap = make(map[storage.TupleSlot]storage.TupleSlot)
		maxTs   uint64
	)
	restored, err := checkpoint.Restore(e.manifest, e.objects, e.cat)
	if err != nil {
		return err
	}
	if restored != nil {
		v := restored.Version
		afterTs = v.SnapshotTs
		slotMap = restored.SlotMap
		maxTs = max(v.LastTs, v.SnapshotTs)
		e.recovery.Bootstrapped = true
		e.recovery.CheckpointSeq = v.Version
		e.recovery.CheckpointRows = restored.Rows
		e.recovery.CheckpointFallbacks = restored.Fallbacks
		// Seed the "previous checkpoint" watermark so the re-anchor (and
		// the first post-restart checkpoint) truncates through the
		// restored snapshot, not from zero.
		e.ckptLastSeq.Store(v.Version)
		e.ckptLastTs.Store(v.SnapshotTs)
	}

	// 3. WAL tail, one segment at a time, bounded memory.
	segs, err := wal.ListSegments(e.walDir())
	if err != nil {
		return err
	}
	tables := e.cat.DataTables()
	sealed := make([]wal.SegmentInfo, 0, len(segs))
	tornAt := -1
	var tornPrefix int64
	for i, seg := range segs {
		res, err := wal.ReplayFile(seg.Path, e.mgr, tables, &wal.ReplayOptions{AfterTs: afterTs, SlotMap: slotMap})
		if err != nil {
			return fmt.Errorf("mainline: replaying %s: %w", filepath.Base(seg.Path), err)
		}
		// A crash tears only the last segment that received writes (a
		// failed flush wedges the log manager, and recovered tears are
		// repaired below). A torn segment FOLLOWED by a segment holding
		// records therefore means a hole in the middle of history —
		// applying past it would fabricate a state that never existed, so
		// refuse to open rather than recover silently over the gap.
		if tornAt >= 0 && res.MaxTs > 0 {
			return fmt.Errorf("mainline: WAL segment %s is torn mid-history (%s holds later records) — refusing to recover over the gap",
				filepath.Base(segs[tornAt].Path), filepath.Base(seg.Path))
		}
		if res.TornTail {
			tornAt = i
			tornPrefix = res.CleanPrefix
		}
		e.recovery.Bootstrapped = true
		e.recovery.TailSegments++
		e.recovery.TailTxnsApplied += res.TxnsApplied
		e.recovery.TailTxnsSkipped += res.TxnsSkipped
		e.recovery.TailRecordsApplied += res.RecordsApplied
		e.recovery.TornTail = e.recovery.TornTail || res.TornTail
		if res.MaxTs > maxTs {
			maxTs = res.MaxTs
		}
		seg.MaxTs = res.MaxTs
		sealed = append(sealed, seg)
	}
	if tornAt >= 0 {
		// Repair the tear now that its clean prefix is recovered: truncate
		// the garbage tail so this segment — which outlives the re-anchor
		// checkpoint (it serves the fallback) — does not read as a
		// mid-history hole on the next startup. This is the tail-tolerance
		// rule Postgres and RocksDB default to; the cut size is surfaced
		// in RecoveryStats for operators who need to investigate.
		if err := truncateSegment(segs[tornAt].Path, tornPrefix); err != nil {
			return fmt.Errorf("mainline: repairing torn WAL segment: %w", err)
		}
		e.recovery.TornBytesTruncated = segs[tornAt].Size - tornPrefix
		sealed[tornAt].Size = tornPrefix
	}

	// 4. Post-recovery commits must never collide with retained records.
	e.mgr.AdvanceTimestampTo(maxTs)

	// 4b. Rebuild declared indexes over the recovered state. Declarations
	// were recorded (not built) at catalog load, so the checkpoint restore
	// and WAL replay above ran maintenance-free; one backfill scan per
	// index over the final visible rows reproduces exactly the entries a
	// clean shutdown would have held.
	if err := e.rebuildIndexes(); err != nil {
		return err
	}

	// 5. Segmented WAL for new commits; old segments stay sealed behind it
	// until the re-anchor checkpoint releases them.
	sink, err := wal.OpenSegmentedSinkFS(e.fsys, e.walDir(), o.WALSegmentSize, sealed)
	if err != nil {
		return err
	}
	e.logMgr = wal.NewLogManager(sink)
	e.logMgr.SyncDelay = o.LogSyncDelay
	e.logMgr.Attach(e.mgr)

	// 6. Re-anchor when any prior state was loaded.
	if restored == nil && e.recovery.TailTxnsApplied == 0 && e.recovery.TailTxnsSkipped == 0 {
		return nil
	}
	// On failure the WAL sink opened in step 5 must not leak its
	// descriptor and fresh segment.
	info, err := e.checkpointLocked()
	if err != nil {
		_ = e.logMgr.Close()
		e.logMgr = nil
		return fmt.Errorf("mainline: re-anchor checkpoint: %w", err)
	}
	e.recovery.ReanchorSeq = info.Seq
	return nil
}

// rebuildIndexes re-creates and backfills every index declared in the
// persisted catalog. Runs single-threaded during bootstrap, before Open
// returns.
func (e *Engine) rebuildIndexes() error {
	start := time.Now()
	for _, t := range e.cat.Tables() {
		for _, spec := range t.TakeRestoredIndexSpecs() {
			ti, err := t.CreateIndex(spec)
			if err != nil {
				return fmt.Errorf("mainline: rebuilding index %s.%s: %w", t.Name, spec.Name, err)
			}
			tx := e.mgr.Begin()
			n, err := ti.Backfill(tx)
			e.mgr.Commit(tx, nil)
			if err != nil {
				return fmt.Errorf("mainline: rebuilding index %s.%s: %w", t.Name, spec.Name, err)
			}
			e.recovery.IndexesRebuilt++
			e.recovery.IndexEntriesRebuilt += n
		}
	}
	if e.recovery.IndexesRebuilt > 0 {
		e.recovery.IndexRebuildDuration = time.Since(start)
	}
	return nil
}

// truncateSegment cuts a torn WAL segment back to its clean prefix and
// fsyncs the result.
func truncateSegment(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ckptMaxBackoffFactor caps the checkpoint retry backoff at this multiple
// of the configured interval.
const ckptMaxBackoffFactor = 8

// startCheckpointer launches the background checkpoint loop. A failed
// attempt (ENOSPC, a sync error on the checkpoint files) leaves the
// previous checkpoint installed and is RETRIED with bounded exponential
// backoff — checkpoint faults are transient and never degrade the engine;
// the backoff just keeps a persistently full disk from being hammered
// every interval. Success (or a terminal ErrDegraded/ErrEngineClosed)
// resets the delay to the configured interval.
func (e *Engine) startCheckpointer(interval time.Duration) {
	e.ckptStop = make(chan struct{})
	e.ckptDone = make(chan struct{})
	go func() {
		defer close(e.ckptDone)
		delay := interval
		timer := time.NewTimer(delay)
		defer timer.Stop()
		for {
			select {
			case <-e.ckptStop:
				return
			case <-timer.C:
				_, err := e.Checkpoint()
				switch {
				case err == nil, errors.Is(err, ErrDegraded), errors.Is(err, ErrEngineClosed):
					delay = interval
				default:
					// Failures are counted in stats (ckptFailed); back off
					// up to ckptMaxBackoffFactor × interval and try again.
					delay *= 2
					if max := interval * ckptMaxBackoffFactor; delay > max {
						delay = max
					}
				}
				timer.Reset(delay)
			}
		}
	}()
}

// stopCheckpointer halts the background checkpoint loop. It must run
// BEFORE Close acquires the write side of closeMu: an in-flight
// Checkpoint holds the read side, and Go's RWMutex blocks new readers
// once a writer waits — stopping first avoids that deadlock.
func (e *Engine) stopCheckpointer() {
	if e.ckptStop == nil {
		return
	}
	e.ckptStopOnce.Do(func() {
		close(e.ckptStop)
		<-e.ckptDone
	})
}

// ownsWALPath reports whether path refers to the engine's own live log:
// the single WAL file, or any segment of the data directory's WAL.
// Comparison is by file inode (os.SameFile), so symlinks and relative
// paths cannot dodge the check.
func (e *Engine) ownsWALPath(path string) bool {
	st, err := os.Stat(path)
	if err != nil {
		return false
	}
	if e.opts.LogPath != "" {
		if own, err := os.Stat(e.opts.LogPath); err == nil && os.SameFile(st, own) {
			return true
		}
	}
	if e.opts.DataDir != "" {
		// The target's own inode against every live segment file — a
		// symlink from elsewhere resolves to the same inode.
		if segs, err := wal.ListSegments(e.walDir()); err == nil {
			for _, s := range segs {
				if own, err := os.Stat(s.Path); err == nil && os.SameFile(st, own) {
					return true
				}
			}
		}
		// And anything that lives inside the WAL directory itself.
		if parent, err := os.Stat(filepath.Dir(path)); err == nil {
			if walD, err := os.Stat(e.walDir()); err == nil && os.SameFile(parent, walD) {
				return true
			}
		}
	}
	return false
}
