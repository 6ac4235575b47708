// Package checkpoint persists transactionally consistent snapshots of the
// database and restores them at startup. A checkpoint is written once, as
// immutable content-addressed objects in an object store plus one version
// record in the manifest log (internal/checkpoint/manifestlog):
//
//	chunk/<sha256> — a standalone Arrow IPC stream (schema + one record
//	                 batch) holding up to 8192 rows of one table
//	slots/<sha256> — the pre-checkpoint physical slot of each row of one
//	                 chunk, little-endian u64, in row order
//	MANIFEST.log   — one version record per checkpoint: snapshot
//	                 timestamp, schemas, and every object's key, size,
//	                 CRC-32C and zone maps
//
// The version record is appended and fsynced only after every object it
// names is durable, so a checkpoint exists exactly when its record is in
// the log. Unchanged chunks hash to keys the store already holds, and
// PutIfAbsent makes them free. Every chunk is third-party-readable Arrow
// (internal/arrow.ReadTable reads it back): the paper's "storage IS the
// interchange format" thesis carried onto disk.
//
// The checkpoint is also the recovery anchor. Restore loads the newest
// retained version and the caller replays only the WAL tail beyond its
// snapshot timestamp. Every object's size and CRC-32C and the catalog
// schema are checked before any row is inserted, and a failed check falls
// back one version.
//
// # Why slot objects
//
// WAL redo records address tuples physically (block, offset). A restored
// checkpoint necessarily assigns new physical slots, so replaying the WAL
// tail needs the mapping from logged pre-crash slots to rebuilt slots for
// every checkpointed row. The slot objects record exactly that and stay
// out of the Arrow chunks, so the columnar export remains pure table data.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/checkpoint/manifestlog"
	"mainline/internal/objstore"
	"mainline/internal/obs"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// Info summarizes one taken checkpoint.
type Info struct {
	// Seq is the checkpoint's version number in the manifest log.
	Seq uint64
	// SnapshotTs is the snapshot timestamp the checkpoint is anchored at.
	SnapshotTs uint64
	// LastTs is the engine clock when the checkpoint finished.
	LastTs uint64
	// Tables is the number of tables captured.
	Tables int
	// Rows is the total rows captured across tables.
	Rows int64
	// BytesWritten is the total size of the objects this checkpoint newly
	// wrote; objects the store already held cost nothing.
	BytesWritten int64
}

// Take writes a transactionally consistent checkpoint of every catalog
// table into store and commits it as the next version record of log. The
// snapshot is a read-only transaction: every row version visible at its
// start timestamp — and nothing newer — lands in the chunks, so the
// record's SnapshotTs cleanly partitions history into "in the checkpoint"
// and "replay from the WAL tail". When perTable is non-nil, each table's
// capture duration is recorded into it.
//
// An error leaves the previous version the newest — a failed attempt is
// retried, never a reason to degrade. An attempt that fails before the
// record append deletes the objects it created; one whose append fails
// keeps them, because the record may still have reached the disk.
// Callers serialize Take with Prune, which could otherwise delete an
// object this attempt found present and is about to reference.
func Take(log *manifestlog.Log, store objstore.Store, cat *catalog.Catalog, mgr *txn.Manager, perTable *obs.Histogram) (*Info, error) {
	// The snapshot transaction pins the GC watermark for the duration, so
	// no version this scan still needs can be pruned under it. Drawing it
	// before listing tables guarantees any table the list misses was
	// created after SnapshotTs — its rows are all in the WAL tail. It is
	// finished with Abort, not Commit: a read-only abort has no effects
	// and, unlike Commit, never reaches the WAL hook, so the checkpoint
	// leaves no record in the fresh segment that would block truncating it
	// at the next checkpoint.
	tx := mgr.Begin()
	defer func() {
		if !tx.Finished() {
			mgr.Abort(tx)
		}
	}()
	// Wait out in-flight commit critical sections before scanning: a
	// transaction can draw commit timestamp C < snapshotTs on another
	// latch shard and still be stamping its undo records, in which case
	// the scan would read its tuples as uncommitted and omit them — yet
	// tail replay (AfterTs = snapshotTs) would skip C too, losing it.
	// CommitFrontier's latch barrier guarantees every commit below the
	// frontier (>= snapshotTs) has finished stamping and is visible.
	mgr.CommitFrontier()

	tables := cat.Tables()
	sort.Slice(tables, func(i, j int) bool { return tables[i].ID < tables[j].ID })

	rec := &manifestlog.VersionRecord{Version: log.NextVersion(), SnapshotTs: tx.StartTs()}
	w := &writer{store: store}
	info := &Info{Seq: rec.Version, SnapshotTs: rec.SnapshotTs, Tables: len(tables)}
	for _, t := range tables {
		var t0 time.Time
		if perTable != nil {
			t0 = time.Now()
		}
		tc, err := w.table(t, tx)
		if err != nil {
			w.abandon()
			return nil, err
		}
		perTable.RecordSince(t0)
		rec.Tables = append(rec.Tables, *tc)
		info.Rows += tc.Rows
	}
	mgr.Abort(tx)
	rec.LastTs = mgr.CurrentTime()
	rec.CreatedUnixNano = time.Now().UnixNano()
	// The install point: the checkpoint exists iff this record is durable.
	if err := log.AppendVersion(rec); err != nil {
		return nil, err
	}
	info.LastTs = rec.LastTs
	info.BytesWritten = w.bytes
	return info, nil
}

// writer uploads one checkpoint's objects and remembers the ones it
// created, so that a failed attempt can take them back.
type writer struct {
	store   objstore.Store
	created []string
	bytes   int64
}

// table writes one table's snapshot batches as chunk and slot objects.
func (w *writer) table(t *catalog.Table, tx *txn.Transaction) (*manifestlog.TableChunks, error) {
	tc := &manifestlog.TableChunks{ID: t.ID, Name: t.Name}
	for _, f := range t.Schema.Fields {
		tc.Fields = append(tc.Fields, manifestlog.FieldDef{Name: f.Name, Type: uint8(f.Type), Nullable: f.Nullable})
	}
	_, err := t.SnapshotBatches(tx, nil, nil, nil, func(rb *arrow.RecordBatch, slots []storage.TupleSlot) error {
		data, err := arrow.EncodeBatch(rb)
		if err != nil {
			return err
		}
		chunk, err := w.put("chunk/", data)
		if err != nil {
			return err
		}
		slotBytes := make([]byte, 0, 8*len(slots))
		for _, s := range slots {
			slotBytes = binary.LittleEndian.AppendUint64(slotBytes, uint64(s))
		}
		slotRef, err := w.put("slots/", slotBytes)
		if err != nil {
			return err
		}
		tc.Chunks = append(tc.Chunks, manifestlog.ChunkRef{ObjectRef: chunk, Slots: slotRef, Rows: rb.NumRows, Zones: chunkZones(rb)})
		tc.Rows += int64(rb.NumRows)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tc, nil
}

// put uploads payload under prefix + hex(sha256(payload)).
func (w *writer) put(prefix string, payload []byte) (manifestlog.ObjectRef, error) {
	ref, created, err := objstore.PutContent(w.store, prefix, payload)
	if err != nil {
		return ref, fmt.Errorf("checkpoint: %w", err)
	}
	if created {
		w.created = append(w.created, ref.Key)
		w.bytes += int64(len(payload))
	}
	return ref, nil
}

// abandon deletes the objects a failed attempt created. No version
// references them, so a failed delete only leaks space.
func (w *writer) abandon() {
	for _, key := range w.created {
		_ = w.store.Delete(key)
	}
}

// chunkZones computes per-integer-column min/max/null summaries of one
// batch.
func chunkZones(rb *arrow.RecordBatch) []manifestlog.ZoneMap {
	var zones []manifestlog.ZoneMap
	for ci, f := range rb.Schema.Fields {
		switch f.Type {
		case arrow.INT8, arrow.INT16, arrow.INT32, arrow.INT64:
		default:
			continue
		}
		col := rb.Columns[ci]
		z := manifestlog.ZoneMap{Col: ci}
		for i := 0; i < rb.NumRows; i++ {
			if col.IsNull(i) {
				z.Nulls++
				continue
			}
			var v int64
			switch f.Type {
			case arrow.INT8:
				v = int64(col.Int8(i))
			case arrow.INT16:
				v = int64(col.Int16(i))
			case arrow.INT32:
				v = int64(col.Int32(i))
			default:
				v = col.Int64(i)
			}
			if !z.HasValues || v < z.Min {
				z.Min = v
			}
			if !z.HasValues || v > z.Max {
				z.Max = v
			}
			z.HasValues = true
		}
		zones = append(zones, z)
	}
	return zones
}
