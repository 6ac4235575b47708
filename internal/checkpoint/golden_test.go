package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/gc"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
)

// Golden digests of the checkpoint goldenTable produces. They pin the
// object format byte for byte — row order, the 8192-row batch cuts,
// builder buffer shapes, and the chunk keys derived from them — so a
// change to how snapshot batches are produced cannot silently change
// what a checkpoint writes. The slots digest covers the slot objects
// concatenated in chunk order. Regenerate only with a deliberate format
// change.
const (
	goldenSlotsSHA = "503c5132b7f48c9888f0504ca2d8c062469c31c461e7c6fa00d21179a6983386"
	goldenChunkSHA = "f7d338a6ca18d5cf8ceb82a781de14ebf5b15671410e31084f4efb6358896343" // newline-joined chunk keys
	goldenChunks   = 7
	goldenRows     = 53472
)

// goldenTable builds a deterministic table whose blocks cover every
// snapshot source: a plain-gathered frozen block, a dictionary-frozen
// block, and a hot block carrying a committed update, a delete, and a
// version chain — with NULLs in a fixed and a varlen column throughout.
func goldenTable(t *testing.T) (*txn.Manager, *catalog.Catalog, *catalog.Table) {
	t.Helper()
	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	cat := catalog.New(reg)
	tbl, err := cat.CreateTable("golden", arrow.NewSchema(
		arrow.Field{Name: "id", Type: arrow.INT64},
		arrow.Field{Name: "name", Type: arrow.STRING, Nullable: true},
		arrow.Field{Name: "qty", Type: arrow.INT32, Nullable: true},
		arrow.Field{Name: "price", Type: arrow.FLOAT64},
		arrow.Field{Name: "tag", Type: arrow.INT8},
	))
	if err != nil {
		t.Fatal(err)
	}
	perBlock := int(tbl.Layout().NumSlots)
	total := 2*perBlock + perBlock/3
	row := tbl.AllColumnsProjection().NewRow()
	var slots []storage.TupleSlot
	for base := 0; base < total; base += 1000 {
		tx := mgr.Begin()
		for i := base; i < min(base+1000, total); i++ {
			row.Reset()
			row.SetInt64(0, int64(i))
			if i%7 == 3 {
				row.SetNull(1)
			} else {
				row.SetVarlen(1, []byte(fmt.Sprintf("name-%02d-padded-past-inline", i%23)))
			}
			if i%11 == 5 {
				row.SetNull(2)
			} else {
				row.SetInt32(2, int32(i*3-7000))
			}
			row.SetFloat64(3, float64(i)*0.25)
			row.SetInt8(4, int8(i%100))
			slot, err := tbl.DataTable.Insert(tx, row)
			if err != nil {
				t.Fatal(err)
			}
			slots = append(slots, slot)
		}
		mgr.Commit(tx, nil)
	}
	blocks := tbl.Blocks()
	if len(blocks) != 3 {
		t.Fatalf("golden table spans %d blocks, want 3", len(blocks))
	}
	g := gc.New(mgr)
	for i := 0; i < 3; i++ {
		g.RunOnce()
	}
	for i, mode := range []transform.Mode{transform.ModeGather, transform.ModeDictionary} {
		b := blocks[i]
		b.SetState(storage.StateFreezing)
		if err := transform.GatherBlock(b, mode, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The hot block keeps a committed update in its version chain (GC
	// does not run again) and a delete.
	tx := mgr.Begin()
	upd := storage.MustProjection(tbl.Layout(), []storage.ColumnID{2, 1}).NewRow()
	upd.SetInt32(0, 424242)
	upd.SetVarlen(1, []byte("updated-after-load"))
	if err := tbl.DataTable.Update(tx, slots[2*perBlock+10], upd); err != nil {
		t.Fatal(err)
	}
	if err := tbl.DataTable.Delete(tx, slots[2*perBlock+11]); err != nil {
		t.Fatal(err)
	}
	mgr.Commit(tx, nil)
	return mgr, cat, tbl
}

func TestCheckpointGoldenFormat(t *testing.T) {
	mgr, cat, _ := goldenTable(t)
	log, store := testStore(t)
	info, err := Take(log, store, cat, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	tables := log.Latest().Tables
	if len(tables) != 1 {
		t.Fatalf("chunk lists = %d, want 1", len(tables))
	}
	var keys []string
	slots := sha256.New()
	for _, c := range tables[0].Chunks {
		keys = append(keys, c.Key)
		data, err := store.Get(c.Slots.Key)
		if err != nil {
			t.Fatal(err)
		}
		slots.Write(data)
	}
	keySum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	got := map[string]string{
		"slots":  hex.EncodeToString(slots.Sum(nil)),
		"chunks": hex.EncodeToString(keySum[:]),
	}
	want := map[string]string{"slots": goldenSlotsSHA, "chunks": goldenChunkSHA}
	if info.Rows != goldenRows || len(keys) != goldenChunks {
		t.Errorf("rows=%d chunks=%d, want rows=%d chunks=%d", info.Rows, len(keys), goldenRows, goldenChunks)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s sha256 = %s, want %s", k, got[k], w)
		}
	}
}
