package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/checkpoint/manifestlog"
	"mainline/internal/objstore"
	"mainline/internal/storage"
)

// RestoreResult reports what a bootstrap loaded.
type RestoreResult struct {
	// Version is the manifest version the bootstrap anchored on.
	Version *manifestlog.VersionRecord
	// Rows is the total rows loaded.
	Rows int64
	// SlotMap maps each checkpointed row's pre-crash physical slot to its
	// rebuilt slot — the seed for WAL-tail replay.
	SlotMap map[storage.TupleSlot]storage.TupleSlot
	// Fallbacks counts newer versions skipped because an object or the
	// catalog failed verification.
	Fallbacks int
}

// Restore loads the newest retained version of log from store into the
// catalog's tables, falling back one version when verification fails: the
// WAL retention rule (a checkpoint's segments are released by its
// successor) covers exactly one fallback, so an older version would
// silently miss commits. (nil, nil) means no version exists; an error
// means versions exist but neither candidate is loadable — starting empty
// would silently lose data the WAL alone cannot reproduce, so the caller
// must surface it. Rows are installed as committed base tuples with no
// transaction (DataTable.LoadBatch), so Restore belongs to bootstrap:
// before any transaction begins and any background loop starts, and
// before the catalog's declared indexes are attached.
func Restore(log *manifestlog.Log, store objstore.Store, cat *catalog.Catalog) (*RestoreResult, error) {
	versions := log.Versions()
	var errs []error
	for i := len(versions) - 1; i >= 0 && i >= len(versions)-2; i-- {
		v := versions[i]
		// Verification is complete BEFORE any row is loaded, so an
		// invalid version falls back cleanly instead of aborting Open
		// after a partial load.
		if err := verify(v, store, cat); err != nil {
			errs = append(errs, fmt.Errorf("version %d: %w", v.Version, err))
			continue
		}
		res, err := load(v, store, cat)
		if err != nil {
			return nil, err
		}
		res.Fallbacks = len(errs)
		return res, nil
	}
	if len(errs) == 0 {
		return nil, nil
	}
	return nil, fmt.Errorf("checkpoint: no loadable version among the newest %d: %w", len(errs), errors.Join(errs...))
}

// verify checks every version table against the catalog and every object
// the version names against its recorded size and CRC-32C. A version can
// legitimately name a table the durable catalog lacks: the snapshot
// listed a table whose CreateTable registered it but crashed (or failed
// and rolled back) before catalog.json landed — no transaction can have
// touched it, so the older version loses nothing.
func verify(v *manifestlog.VersionRecord, store objstore.Store, cat *catalog.Catalog) error {
	for i := range v.Tables {
		tc := &v.Tables[i]
		t := cat.TableByID(tc.ID)
		if t == nil {
			return fmt.Errorf("checkpoint: table %q (id %d) in version but not in catalog", tc.Name, tc.ID)
		}
		if want := versionSchema(tc); !t.Schema.Equal(want) {
			return fmt.Errorf("checkpoint: table %q schema drifted: catalog %s vs checkpoint %s", tc.Name, t.Schema, want)
		}
		var rows int64
		for _, c := range tc.Chunks {
			if c.Slots.Size != int64(c.Rows)*8 {
				return fmt.Errorf("checkpoint: chunk %s of %q has %d slot bytes for %d rows", c.Key, tc.Name, c.Slots.Size, c.Rows)
			}
			for _, ref := range []manifestlog.ObjectRef{c.ObjectRef, c.Slots} {
				if _, err := objstore.GetVerified(store, ref); err != nil {
					// Content addressing would otherwise let the next
					// checkpoint's PutIfAbsent of the same bytes keep
					// referencing the damaged copy.
					if errors.Is(err, objstore.ErrCorrupt) {
						_ = store.Delete(ref.Key)
					}
					return err
				}
			}
			rows += int64(c.Rows)
		}
		if rows != tc.Rows {
			return fmt.Errorf("checkpoint: table %q chunks hold %d rows, version says %d", tc.Name, rows, tc.Rows)
		}
	}
	return nil
}

// versionSchema rebuilds the Arrow schema a version records for a table.
func versionSchema(tc *manifestlog.TableChunks) *arrow.Schema {
	fields := make([]arrow.Field, 0, len(tc.Fields))
	for _, f := range tc.Fields {
		fields = append(fields, arrow.Field{Name: f.Name, Type: arrow.TypeID(f.Type), Nullable: f.Nullable})
	}
	return arrow.NewSchema(fields...)
}

// load installs every row of a verified version into the catalog's
// tables as committed base tuples and builds the slot map.
func load(v *manifestlog.VersionRecord, store objstore.Store, cat *catalog.Catalog) (*RestoreResult, error) {
	var rows int64
	for i := range v.Tables {
		rows += v.Tables[i].Rows
	}
	res := &RestoreResult{Version: v, SlotMap: make(map[storage.TupleSlot]storage.TupleSlot, rows)}
	for i := range v.Tables {
		tc := &v.Tables[i]
		if err := loadTable(tc, cat.TableByID(tc.ID), store, res); err != nil {
			return nil, fmt.Errorf("checkpoint: loading table %q: %w", tc.Name, err)
		}
	}
	return res, nil
}

// loadTable loads one table's chunks through DataTable.LoadBatch: no
// transaction, undo, redo or index delta (the bootstrap rebuilds indexes
// afterwards).
func loadTable(tc *manifestlog.TableChunks, t *catalog.Table, store objstore.Store, res *RestoreResult) error {
	for _, c := range tc.Chunks {
		rb, slots, err := readChunk(store, c)
		if err != nil {
			return err
		}
		if !rb.Schema.Equal(t.Schema) {
			return fmt.Errorf("chunk %s schema %s != table schema %s", c.Key, rb.Schema, t.Schema)
		}
		newSlots, err := t.DataTable.LoadBatch(rb)
		if err != nil {
			return err
		}
		for r, s := range newSlots {
			res.SlotMap[slots[r]] = s
		}
		res.Rows += int64(len(newSlots))
	}
	return nil
}

// readChunk fetches and decodes one chunk's record batch and slots.
func readChunk(store objstore.Store, c manifestlog.ChunkRef) (*arrow.RecordBatch, []storage.TupleSlot, error) {
	data, err := objstore.GetVerified(store, c.ObjectRef)
	if err != nil {
		return nil, nil, err
	}
	slotBytes, err := objstore.GetVerified(store, c.Slots)
	if err != nil {
		return nil, nil, err
	}
	rb, err := arrow.DecodeBatch(data)
	if err != nil {
		return nil, nil, fmt.Errorf("decoding chunk %s: %w", c.Key, err)
	}
	if rb.NumRows != c.Rows || len(slotBytes) != 8*c.Rows {
		return nil, nil, fmt.Errorf("chunk %s: %d rows and %d slot bytes, version says %d rows", c.Key, rb.NumRows, len(slotBytes), c.Rows)
	}
	slots := make([]storage.TupleSlot, c.Rows)
	for i := range slots {
		slots[i] = storage.TupleSlot(binary.LittleEndian.Uint64(slotBytes[i*8:]))
	}
	return rb, slots, nil
}

// Prune drops all but the newest keep retained versions from log and
// deletes the objects no retained version references. The prune record
// commits (and fsyncs) before any object is deleted, so a crash mid-prune
// can only over-retain objects — a retained version never references a
// deleted one. Callers serialize Prune with Take (see Take). Returns how
// many versions were pruned and how many objects deleted; keep < 1 keeps 1.
func Prune(log *manifestlog.Log, store objstore.Store, keep int) (versionsPruned, objectsDeleted int, err error) {
	if keep < 1 {
		keep = 1
	}
	retained := log.Versions()
	if len(retained) <= keep {
		return 0, 0, nil
	}
	doomed := make([]uint64, 0, len(retained)-keep)
	for _, v := range retained[:len(retained)-keep] {
		doomed = append(doomed, v.Version)
	}
	// Compute the orphan set BEFORE the prune record lands: afterwards
	// the doomed versions are flagged pruned and no longer distinguish
	// "referenced only by doomed" from "referenced by nothing".
	orphans := log.UnreferencedKeys(doomed)
	if err := log.AppendPrune(doomed); err != nil {
		return 0, 0, err
	}
	for _, key := range orphans {
		// A failed delete leaves an unreferenced object behind that no
		// later prune revisits, so report the error.
		if derr := store.Delete(key); derr != nil {
			return len(doomed), objectsDeleted, derr
		}
		objectsDeleted++
	}
	return len(doomed), objectsDeleted, nil
}
