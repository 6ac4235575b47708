package mainline

import (
	"fmt"

	"mainline/internal/arrow"
	"mainline/internal/checkpoint"
	"mainline/internal/checkpoint/manifestlog"
	"mainline/internal/objstore"
)

// Time travel: every checkpoint commits a version record into the
// manifest log (<DataDir>/MANIFEST.log) referencing that snapshot's
// table content as content-addressed chunk objects. With an object
// store those objects and versions are kept until PruneSnapshots, so
// AsOf resolves a timestamp to the version that served it and streams
// the frozen chunks back — reads go to the store, never the live
// tables, so historical scans cost the engine nothing.

// Snapshot is a read-only historical database version resolved by
// Engine.AsOf. It is immutable: the chunks it references are
// content-addressed objects no later checkpoint rewrites, so a Snapshot
// stays readable for as long as its version is not pruned.
type Snapshot struct {
	eng *Engine
	rec *manifestlog.VersionRecord
}

// AsOf resolves the newest committed snapshot version at or before ts
// (a commit timestamp, as returned by Txn.CommitTs or recorded in
// CheckpointInfo.SnapshotTs). Versions are created by checkpoints on an
// engine opened with both WithDataDir and an object store; without
// those it returns ErrNoDataDir / ErrNoObjectStore. A ts earlier than
// all retained history returns ErrNoSuchVersion; a ts whose covering
// version was pruned returns ErrVersionPruned.
func (e *Engine) AsOf(ts uint64) (*Snapshot, error) {
	if e.opts.DataDir == "" {
		return nil, ErrNoDataDir
	}
	if e.tier == nil {
		return nil, ErrNoObjectStore
	}
	rec, err := e.manifest.Resolve(ts)
	if err != nil {
		return nil, err
	}
	return &Snapshot{eng: e, rec: rec}, nil
}

// Version returns the snapshot's version number (its checkpoint
// sequence).
func (s *Snapshot) Version() uint64 { return s.rec.Version }

// SnapshotTs returns the snapshot's consistency point: every commit at
// or below it is visible, nothing newer is.
func (s *Snapshot) SnapshotTs() uint64 { return s.rec.SnapshotTs }

// Tables lists the table names captured in this version.
func (s *Snapshot) Tables() []string {
	names := make([]string, 0, len(s.rec.Tables))
	for _, t := range s.rec.Tables {
		names = append(names, t.Name)
	}
	return names
}

// TableRows returns the row count of the named table in this version
// (ok false when the version has no such table).
func (s *Snapshot) TableRows(name string) (int64, bool) {
	if t := s.table(name); t != nil {
		return t.Rows, true
	}
	return 0, false
}

func (s *Snapshot) table(name string) *manifestlog.TableChunks {
	for i := range s.rec.Tables {
		if s.rec.Tables[i].Name == name {
			return &s.rec.Tables[i]
		}
	}
	return nil
}

// ScanTable streams the named table's content at this version as Arrow
// record batches, fetching each chunk from the object store and
// verifying its size and CRC-32C against the manifest record. fn
// returning an error stops the scan.
func (s *Snapshot) ScanTable(name string, fn func(*RecordBatch) error) error {
	t := s.table(name)
	if t == nil {
		return fmt.Errorf("mainline: version %d has no table %q", s.rec.Version, name)
	}
	for i := range t.Chunks {
		if err := s.scanChunk(t, &t.Chunks[i], fn); err != nil {
			return err
		}
	}
	return nil
}

// ScanTableRange streams only the chunks that may hold rows with the
// named integer column in [min, max], using the zone maps recorded in
// the manifest — pruning happens before any object-store read, so a
// selective historical query over a bottomless table fetches only the
// chunks it needs. Returns how many chunks were read and how many the
// zones pruned.
func (s *Snapshot) ScanTableRange(name, col string, min, max int64, fn func(*RecordBatch) error) (read, pruned int, err error) {
	t := s.table(name)
	if t == nil {
		return 0, 0, fmt.Errorf("mainline: version %d has no table %q", s.rec.Version, name)
	}
	ci := -1
	for i, f := range t.Fields {
		if f.Name == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, 0, fmt.Errorf("mainline: version %d table %q has no column %q", s.rec.Version, name, col)
	}
	for i := range t.Chunks {
		c := &t.Chunks[i]
		if !c.MightMatchRange(ci, min, max) {
			pruned++
			continue
		}
		if err := s.scanChunk(t, c, fn); err != nil {
			return read, pruned, err
		}
		read++
	}
	return read, pruned, nil
}

// scanChunk fetches, verifies, decodes, and delivers one chunk.
func (s *Snapshot) scanChunk(t *manifestlog.TableChunks, c *manifestlog.ChunkRef, fn func(*RecordBatch) error) error {
	data, err := objstore.GetVerified(s.eng.objects, c.ObjectRef)
	if err != nil {
		return fmt.Errorf("mainline: chunk of %s@%d: %w", t.Name, s.rec.Version, err)
	}
	rb, err := arrow.DecodeBatch(data)
	if err != nil {
		return fmt.Errorf("mainline: decoding chunk %s: %w", c.Key, err)
	}
	return fn(rb)
}

// PruneSnapshots drops all but the newest keep versions from the
// manifest log and deletes the chunk and slot objects no retained version
// references. The prune record commits (and fsyncs) before any object is
// deleted, so a crash mid-prune can only over-retain objects — a retained
// version never references a deleted one. It waits for an in-flight
// checkpoint, which may be about to reference an object the prune would
// delete. Returns how many versions were pruned and how many objects
// deleted. keep < 1 keeps 1.
func (a Admin) PruneSnapshots(keep int) (versionsPruned, objectsDeleted int, err error) {
	e := a.eng
	if e.tier == nil || e.manifest == nil {
		return 0, 0, ErrNoObjectStore
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	return checkpoint.Prune(e.manifest, e.objects, keep)
}
