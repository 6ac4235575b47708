package mainline

// AsOf end-to-end: on an engine with a data dir AND an object store,
// every checkpoint commits a version record to the manifest log whose
// chunks live in the store. AsOf resolves commit timestamps to verified
// historical snapshots served entirely from the store; manifest zone
// maps prune cold chunks before any fetch (counter-asserted); content
// addressing shares unchanged chunks across versions; pruning retires
// old versions and deletes exactly the orphaned objects while retained
// versions stay readable; and the manifest log reloads across an
// engine restart.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"mainline/internal/objstore"
	"mainline/internal/storage"
	"mainline/internal/transform"
)

const (
	// asofRows exceeds the checkpoint's 8192-row batch size so each
	// version spans two chunks: ids [0,8191] and [8192,...]. Mutations in
	// the test touch only the second chunk's id range, so the first chunk
	// is bit-identical across versions and shared by content addressing.
	asofRows      = 10000
	asofChunkRows = 8192
)

type asofContent struct {
	rows      int
	balance   int64
	balanceAt map[int64]int64
}

func readSnapshot(t *testing.T, snap *Snapshot) asofContent {
	t.Helper()
	got := asofContent{balanceAt: map[int64]int64{}}
	err := snap.ScanTable("ledger", func(rb *RecordBatch) error {
		id, note, bal := rb.Column("id"), rb.Column("note"), rb.Column("balance")
		for i := 0; i < rb.NumRows; i++ {
			got.rows++
			got.balance += bal.Int64(i)
			got.balanceAt[id.Int64(i)] = bal.Int64(i)
			if id.Int64(i)%9 == 0 {
				if !note.IsNull(i) {
					return fmt.Errorf("id %d note should be null", id.Int64(i))
				}
			} else if want := fmt.Sprintf("note-%d", id.Int64(i)); note.Str(i) != want {
				return fmt.Errorf("id %d note %q, want %q", id.Int64(i), note.Str(i), want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAsOfTimeTravel(t *testing.T) {
	root := t.TempDir()
	dataDir := filepath.Join(root, "data")
	objDir := filepath.Join(root, "objects")

	openEng := func() (*Engine, *objstore.CountingStore) {
		t.Helper()
		fs, err := objstore.NewFSStore(objDir, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs := objstore.NewCountingStore(fs)
		eng, err := Open(
			WithDataDir(dataDir),
			WithObjectStoreBackend(cs),
			WithTierSweepInterval(time.Hour),
		)
		if err != nil {
			t.Fatal(err)
		}
		return eng, cs
	}

	eng, cs := openEng()
	defer func() { eng.Close() }()
	tbl, err := eng.CreateTable("ledger", NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "note", Type: STRING, Nullable: true},
		Field{Name: "balance", Type: INT64},
	))
	if err != nil {
		t.Fatal(err)
	}

	var slotHot TupleSlot // slot of id 9001, mutated for version 2
	if err := eng.Update(func(tx *Txn) error {
		row := tbl.NewRow()
		for i := 0; i < asofRows; i++ {
			id := int64(i)
			row.Reset()
			row.Set("id", id)
			if id%9 == 0 {
				row.Set("note", nil)
			} else {
				row.Set("note", fmt.Sprintf("note-%d", id))
			}
			row.Set("balance", id%500)
			slot, err := tbl.Insert(tx, row)
			if err != nil {
				return err
			}
			if id == 9001 {
				slotHot = slot
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Seal and freeze what we can so the checkpoint export exercises the
	// frozen zero-copy path alongside hot materialization.
	blocks := tbl.Blocks()
	last := blocks[len(blocks)-1]
	last.SetInsertHead(last.Layout.NumSlots)
	for i := 0; i < 3; i++ {
		eng.RunGC()
	}
	for i, blk := range blocks {
		if blk.State() != storage.StateHot || blk.HasActiveVersions() {
			continue
		}
		mode := transform.ModeGather
		if i%2 == 1 {
			mode = transform.ModeDictionary
		}
		blk.SetState(storage.StateFreezing)
		if err := transform.GatherBlock(blk, mode); err != nil {
			t.Fatal(err)
		}
	}

	// No version exists yet: nothing to travel to.
	if _, err := eng.AsOf(0); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("AsOf before first checkpoint = %v, want ErrNoSuchVersion", err)
	}

	info1, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	keysV1, err := cs.List("chunk/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keysV1) != 2 {
		t.Fatalf("version 1 uploaded %d chunk objects, want 2", len(keysV1))
	}

	// Version 2: rewrite one row in the SECOND chunk's id range (forcing
	// a thaw if its block froze) and append a row. The first chunk's
	// content is untouched, so its object is shared with version 1.
	if err := eng.Update(func(tx *Txn) error {
		row := tbl.NewRow()
		row.Set("id", int64(9001))
		row.Set("note", "note-9001")
		row.Set("balance", int64(999_999))
		return tbl.Update(tx, slotHot, row)
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(func(tx *Txn) error {
		row := tbl.NewRow()
		row.Set("id", int64(88888))
		row.Set("note", "note-88888")
		row.Set("balance", int64(777))
		_, err := tbl.Insert(tx, row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	info2, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info2.Seq <= info1.Seq || info2.SnapshotTs <= info1.SnapshotTs {
		t.Fatalf("checkpoint 2 (%d@%d) does not advance on 1 (%d@%d)",
			info2.Seq, info2.SnapshotTs, info1.Seq, info1.SnapshotTs)
	}
	keysV2, err := cs.List("chunk/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keysV2) != 3 {
		t.Fatalf("store holds %d chunk objects after version 2, want 3 (first chunk shared)", len(keysV2))
	}

	// Each snapshot serves its own consistency point, bit-exactly.
	const wantBase = 2_495_000 // sum of id%500 over ids 0..9999
	snap1, err := eng.AsOf(info1.SnapshotTs)
	if err != nil {
		t.Fatal(err)
	}
	if snap1.Version() != info1.Seq || snap1.SnapshotTs() != info1.SnapshotTs {
		t.Fatalf("snap1 resolved %d@%d, want %d@%d", snap1.Version(), snap1.SnapshotTs(), info1.Seq, info1.SnapshotTs)
	}
	v1 := readSnapshot(t, snap1)
	if v1.rows != asofRows || v1.balance != wantBase || v1.balanceAt[9001] != 9001%500 {
		t.Fatalf("v1 content: rows %d balance %d id9001 %d", v1.rows, v1.balance, v1.balanceAt[9001])
	}
	snap2, err := eng.AsOf(info2.SnapshotTs)
	if err != nil {
		t.Fatal(err)
	}
	v2 := readSnapshot(t, snap2)
	if v2.rows != asofRows+1 || v2.balanceAt[9001] != 999_999 || v2.balanceAt[88888] != 777 {
		t.Fatalf("v2 content: rows %d id9001 %d id88888 %d", v2.rows, v2.balanceAt[9001], v2.balanceAt[88888])
	}
	if rows, ok := snap1.TableRows("ledger"); !ok || rows != int64(asofRows) {
		t.Fatalf("snap1 TableRows = %d, %v", rows, ok)
	}

	// Zone-pruned historical range scan: the first chunk's id zone
	// [0,8191] excludes the probe range, so only the second chunk is
	// fetched from the store.
	gets0 := cs.Gets()
	seen := 0
	read, pruned, err := snap1.ScanTableRange("ledger", "id", 9000, 9500, func(rb *RecordBatch) error {
		seen += rb.NumRows
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if read != 1 || pruned != 1 {
		t.Fatalf("range scan read %d pruned %d, want 1/1", read, pruned)
	}
	if want := asofRows - asofChunkRows; seen != want {
		t.Fatalf("range scan delivered %d rows, want the covering chunk's %d", seen, want)
	}
	if d := cs.Gets() - gets0; d != 1 {
		t.Fatalf("range scan fetched %d objects, want exactly 1 (pruned chunk must not be read)", d)
	}

	// Prune history: v1 goes away and exactly its orphaned second chunk
	// and that chunk's slot object are deleted — the shared first chunk
	// and its slot object survive for v2.
	vp, od, err := eng.Admin().PruneSnapshots(1)
	if err != nil {
		t.Fatal(err)
	}
	if vp != 1 || od != 2 {
		t.Fatalf("PruneSnapshots = %d versions, %d objects; want 1, 2", vp, od)
	}
	keysPruned, err := cs.List("chunk/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keysPruned) != 2 {
		t.Fatalf("chunk objects after prune = %d, want 2", len(keysPruned))
	}
	if _, err := eng.AsOf(info1.SnapshotTs); !errors.Is(err, ErrVersionPruned) {
		t.Fatalf("AsOf(pruned) = %v, want ErrVersionPruned", err)
	}
	snap2b, err := eng.AsOf(info2.SnapshotTs)
	if err != nil {
		t.Fatalf("retained version unreadable after prune: %v", err)
	}
	if got := readSnapshot(t, snap2b); got.rows != v2.rows || got.balance != v2.balance {
		t.Fatalf("retained version content drifted after prune: %+v vs %+v", got, v2)
	}

	// Restart: the manifest log reloads; the retained version still
	// resolves by its timestamp (the re-anchor checkpoint's newer version
	// does not shadow it) and the prune record still holds.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, _ := openEng()
	defer eng2.Close()
	snap3, err := eng2.AsOf(info2.SnapshotTs)
	if err != nil {
		t.Fatal(err)
	}
	if snap3.Version() != info2.Seq {
		t.Fatalf("after reopen AsOf(ts2) resolved version %d, want %d", snap3.Version(), info2.Seq)
	}
	if got := readSnapshot(t, snap3); got.rows != v2.rows || got.balanceAt[9001] != 999_999 {
		t.Fatalf("after reopen v2 content: %+v", got)
	}
	if _, err := eng2.AsOf(info1.SnapshotTs); !errors.Is(err, ErrVersionPruned) {
		t.Fatalf("after reopen AsOf(pruned) = %v, want ErrVersionPruned", err)
	}
	latest, err := eng2.AsOf(^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	if latest.Version() <= info2.Seq {
		t.Fatalf("re-anchor checkpoint did not append a version: latest %d", latest.Version())
	}
	if rows, ok := latest.TableRows("ledger"); !ok || rows != int64(asofRows+1) {
		t.Fatalf("latest version rows = %d, %v", rows, ok)
	}
}
