package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/fault"
	"mainline/internal/fsutil"
	"mainline/internal/objstore"
	"mainline/internal/obs"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// Info summarizes one taken checkpoint.
type Info struct {
	// Seq is the checkpoint's sequence number.
	Seq uint64
	// SnapshotTs is the snapshot timestamp the checkpoint is anchored at.
	SnapshotTs uint64
	// LastTs is the engine clock when the checkpoint finished.
	LastTs uint64
	// Tables is the number of tables captured.
	Tables int
	// Rows is the total rows captured across tables.
	Rows int64
	// BytesWritten is the total bytes of data, sidecar, and manifest files.
	BytesWritten int64
	// Dir is the installed checkpoint directory.
	Dir string
}

// Take writes a transactionally consistent checkpoint of every catalog
// table into dir (the checkpoints directory, created if needed) and
// installs it atomically, performing all filesystem operations through
// fsys (nil = real filesystem). The snapshot is a read-only transaction:
// every row version visible at its start timestamp — and nothing newer —
// lands in the table files, so the manifest's SnapshotTs cleanly
// partitions history into "in the checkpoint" and "replay from the WAL
// tail". Any error before the final rename leaves the previous
// checkpoint installed and intact — a failed attempt is retried, never a
// reason to degrade.
//
// When perTable is non-nil, each table's capture duration (scan + IPC
// write + sidecar) is recorded into it. When store is non-nil, every
// table's snapshot batches are additionally encoded as standalone Arrow
// IPC chunks and uploaded to the object store under content-hash keys
// (see chunks.go), and the per-table chunk lists are returned for the
// caller to commit into the manifest log. Chunk uploads happen before the
// checkpoint installs, so a failed attempt may orphan objects but never
// publishes a version referencing missing data. A chunk upload failure
// (store unreachable, ENOSPC) fails the whole attempt — the previous
// checkpoint stays installed and the caller retries.
func Take(fsys fault.FS, dir string, cat *catalog.Catalog, mgr *txn.Manager, perTable *obs.Histogram, store objstore.Store) (*Info, []TableChunks, error) {
	if fsys == nil {
		fsys = fault.OS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: creating %s: %w", dir, err)
	}
	seqs, err := ListSeqs(dir)
	if err != nil {
		return nil, nil, err
	}
	seq := uint64(1)
	if n := len(seqs); n > 0 {
		seq = seqs[n-1] + 1
	}
	tmp := filepath.Join(dir, fmt.Sprintf(".tmp-%d", seq))
	if err := fsys.RemoveAll(tmp); err != nil {
		return nil, nil, err
	}
	if err := fsys.MkdirAll(tmp); err != nil {
		return nil, nil, err
	}
	cleanup := true
	defer func() {
		if cleanup {
			// Best-effort: the aborted attempt's temp directory is garbage
			// either way — prune sweeps stragglers on the next success.
			_ = fsys.RemoveAll(tmp)
		}
	}()

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
	snapshotTs := tx.StartTs()
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

	info := &Info{Seq: seq, SnapshotTs: snapshotTs, Dir: filepath.Join(dir, seqDirName(seq))}
	man := &Manifest{
		FormatVersion:   FormatVersion,
		Seq:             seq,
		SnapshotTs:      snapshotTs,
		CreatedUnixNano: time.Now().UnixNano(),
	}
	var chunks []TableChunks
	for _, t := range tables {
		var t0 time.Time
		if perTable != nil {
			t0 = time.Now()
		}
		ti, tc, err := writeTable(fsys, tmp, t, tx, store)
		if err != nil {
			return nil, nil, err
		}
		perTable.RecordSince(t0)
		man.Tables = append(man.Tables, *ti)
		info.Rows += ti.Rows
		info.BytesWritten += ti.DataSize + ti.SlotSize
		if tc != nil {
			chunks = append(chunks, *tc)
		}
	}
	mgr.Abort(tx)
	man.LastTs = mgr.CurrentTime()
	info.LastTs = man.LastTs
	info.Tables = len(man.Tables)

	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	if err := fsutil.WriteFileSync(fsys, filepath.Join(tmp, ManifestName), data); err != nil {
		return nil, nil, err
	}
	info.BytesWritten += int64(len(data))
	// The temp directory's entries (data, sidecar, manifest) must be
	// durable before the rename publishes them: a crash after an un-synced
	// install could expose a checkpoint directory with missing files. A
	// sync failure aborts the attempt — previous checkpoint stays current.
	if err := fsys.SyncDir(tmp); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: syncing %s: %w", tmp, err)
	}

	// Atomic install: the checkpoint exists iff the rename completed.
	if err := fsys.Rename(tmp, info.Dir); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: installing %s: %w", info.Dir, err)
	}
	cleanup = false
	// Failing to sync the parent leaves the rename volatile: recovery could
	// still see the previous checkpoint after a crash. Propagate so the
	// caller does not truncate the WAL against a checkpoint that may not
	// survive.
	if err := fsys.SyncDir(dir); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: syncing %s: %w", dir, err)
	}
	prune(fsys, dir)
	return info, chunks, nil
}

// writeTable writes one table's Arrow IPC stream and slot sidecar into the
// temp checkpoint directory through fsys. With a non-nil store, each
// snapshot batch is additionally uploaded as a content-addressed chunk
// object and the chunk list is returned for the manifest log.
func writeTable(fsys fault.FS, tmp string, t *catalog.Table, tx *txn.Transaction, store objstore.Store) (*TableInfo, *TableChunks, error) {
	ti := &TableInfo{
		ID:       t.ID,
		Name:     t.Name,
		DataFile: fmt.Sprintf("t-%d.arrow", t.ID),
		SlotFile: fmt.Sprintf("t-%d.slots", t.ID),
	}
	for _, f := range t.Schema.Fields {
		ti.Fields = append(ti.Fields, FieldDef{Name: f.Name, Type: uint8(f.Type), Nullable: f.Nullable})
	}
	var tc *TableChunks
	if store != nil {
		tc = &TableChunks{ID: t.ID, Name: t.Name, Fields: ti.Fields}
	}

	df, err := fsys.Create(filepath.Join(tmp, ti.DataFile))
	if err != nil {
		return nil, nil, err
	}
	defer df.Close()
	dcw := &crcWriter{w: df}
	wr := arrow.NewWriter(dcw)
	if err := wr.WriteSchema(t.Schema); err != nil {
		return nil, nil, err
	}

	sf, err := fsys.Create(filepath.Join(tmp, ti.SlotFile))
	if err != nil {
		return nil, nil, err
	}
	defer sf.Close()
	scw := &crcWriter{w: sf}
	var slotBuf []byte

	rows, err := t.SnapshotBatches(tx, nil, nil, nil, func(rb *arrow.RecordBatch, slots []storage.TupleSlot) error {
		if err := wr.WriteBatch(rb); err != nil {
			return err
		}
		if tc != nil {
			ref, err := writeChunk(store, t.Schema, rb)
			if err != nil {
				return err
			}
			tc.Chunks = append(tc.Chunks, ref)
			tc.Rows += int64(rb.NumRows)
		}
		slotBuf = slotBuf[:0]
		for _, s := range slots {
			slotBuf = binary.LittleEndian.AppendUint64(slotBuf, uint64(s))
		}
		_, err := scw.Write(slotBuf)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if err := wr.Close(); err != nil {
		return nil, nil, err
	}
	if err := df.Sync(); err != nil {
		return nil, nil, err
	}
	if err := sf.Sync(); err != nil {
		return nil, nil, err
	}
	ti.Rows = int64(rows)
	ti.DataSize, ti.DataCRC = dcw.n, dcw.crc
	ti.SlotSize, ti.SlotCRC = scw.n, scw.crc
	return ti, tc, nil
}
