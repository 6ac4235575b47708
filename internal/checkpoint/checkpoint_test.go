package checkpoint

import (
	"os"
	"path/filepath"
	"testing"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

func testEngine(t *testing.T) (*txn.Manager, *catalog.Catalog, *catalog.Table) {
	t.Helper()
	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	cat := catalog.New(reg)
	tbl, err := cat.CreateTable("accounts", arrow.NewSchema(
		arrow.Field{Name: "id", Type: arrow.INT64},
		arrow.Field{Name: "owner", Type: arrow.STRING, Nullable: true},
		arrow.Field{Name: "balance", Type: arrow.INT64},
	))
	if err != nil {
		t.Fatal(err)
	}
	return mgr, cat, tbl
}

func insertRow(t *testing.T, mgr *txn.Manager, tbl *catalog.Table, id int64, owner string, balance int64) storage.TupleSlot {
	t.Helper()
	tx := mgr.Begin()
	row := tbl.AllColumnsProjection().NewRow()
	row.SetInt64(0, id)
	if owner == "" {
		row.SetNull(1)
	} else {
		row.SetVarlen(1, []byte(owner))
	}
	row.SetInt64(2, balance)
	slot, err := tbl.DataTable.Insert(tx, row)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Commit(tx, nil)
	return slot
}

func TestTakeRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mgr, cat, tbl := testEngine(t)
	var slots []storage.TupleSlot
	for i := 0; i < 100; i++ {
		owner := "owner"
		if i%7 == 0 {
			owner = "" // exercise nulls
		}
		slots = append(slots, insertRow(t, mgr, tbl, int64(i), owner, int64(1000+i)))
	}
	// A post-insert update and delete so versions exist.
	tx := mgr.Begin()
	u := storage.MustProjection(tbl.Layout(), []storage.ColumnID{2}).NewRow()
	u.SetInt64(0, 9999)
	if err := tbl.DataTable.Update(tx, slots[5], u); err != nil {
		t.Fatal(err)
	}
	if err := tbl.DataTable.Delete(tx, slots[6]); err != nil {
		t.Fatal(err)
	}
	mgr.Commit(tx, nil)

	info, _, err := Take(nil, dir, cat, mgr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || info.Tables != 1 || info.Rows != 99 {
		t.Fatalf("info = %+v", info)
	}

	// The data file must read back as a standalone Arrow IPC stream.
	f, err := os.Open(filepath.Join(info.Dir, "t-1.arrow"))
	if err != nil {
		t.Fatal(err)
	}
	at, err := arrow.ReadTable(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if at.NumRows() != 99 {
		t.Fatalf("arrow table rows = %d", at.NumRows())
	}

	// Restore into a fresh engine.
	mgr2, cat2, tbl2 := testEngine(t)
	res, err := Restore(dir, cat2, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Rows != 99 || res.Manifest.Seq != 1 || res.Fallbacks != 0 {
		t.Fatalf("res = %+v", res)
	}
	if len(res.SlotMap) != 99 {
		t.Fatalf("slot map has %d entries", len(res.SlotMap))
	}
	// The updated row must carry its snapshot value; the deleted row must
	// be absent; slot mapping must resolve the old physical address.
	newSlot, ok := res.SlotMap[slots[5]]
	if !ok {
		t.Fatal("updated row's old slot missing from map")
	}
	check := mgr2.Begin()
	defer mgr2.Commit(check, nil)
	out := tbl2.AllColumnsProjection().NewRow()
	found, err := tbl2.DataTable.Select(check, newSlot, out)
	if err != nil || !found {
		t.Fatalf("mapped slot unreadable: %v", err)
	}
	if out.Int64(2) != 9999 {
		t.Fatalf("balance = %d, want 9999", out.Int64(2))
	}
	if _, ok := res.SlotMap[slots[6]]; ok {
		t.Fatal("deleted row leaked into slot map")
	}
	if n := tbl2.DataTable.CountVisible(check); n != 99 {
		t.Fatalf("restored %d visible rows", n)
	}
}

func TestRestoreFallsBackOnCorruption(t *testing.T) {
	dir := t.TempDir()
	mgr, cat, tbl := testEngine(t)
	insertRow(t, mgr, tbl, 1, "a", 10)
	if _, _, err := Take(nil, dir, cat, mgr, nil, nil); err != nil {
		t.Fatal(err)
	}
	insertRow(t, mgr, tbl, 2, "b", 20)
	info2, _, err := Take(nil, dir, cat, mgr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint's data file.
	path := filepath.Join(info2.Dir, "t-1.arrow")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	mgr2, cat2, tbl2 := testEngine(t)
	res, err := Restore(dir, cat2, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest.Seq != 1 || res.Fallbacks != 1 {
		t.Fatalf("res = seq %d fallbacks %d, want fallback to seq 1", res.Manifest.Seq, res.Fallbacks)
	}
	check := mgr2.Begin()
	defer mgr2.Commit(check, nil)
	if n := tbl2.DataTable.CountVisible(check); n != 1 {
		t.Fatalf("restored %d rows from fallback", n)
	}
}

func TestRestoreEmptyDirAndAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	mgr, cat, _ := testEngine(t)
	res, err := Restore(filepath.Join(dir, "none"), cat, mgr)
	if err != nil || res != nil {
		t.Fatalf("empty: %v %v", res, err)
	}

	// One checkpoint, then destroy it: Restore must error, not silently
	// start empty.
	mgr1, cat1, tbl1 := testEngine(t)
	insertRow(t, mgr1, tbl1, 1, "a", 10)
	info, _, err := Take(nil, dir, cat1, mgr1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(info.Dir, "t-1.slots")); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(dir, cat, mgr); err == nil {
		t.Fatal("restore of all-corrupt checkpoints must fail")
	}
}

func TestPruneKeepsTwo(t *testing.T) {
	dir := t.TempDir()
	mgr, cat, tbl := testEngine(t)
	for i := 0; i < 4; i++ {
		insertRow(t, mgr, tbl, int64(i), "x", 1)
		if _, _, err := Take(nil, dir, cat, mgr, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := ListSeqs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != keepCheckpoints {
		t.Fatalf("kept %d checkpoints: %v", len(seqs), seqs)
	}
	if seqs[len(seqs)-1] != 4 {
		t.Fatalf("newest kept = %d", seqs[len(seqs)-1])
	}
}

func TestEmptyTableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	mgr, cat, _ := testEngine(t)
	info, _, err := Take(nil, dir, cat, mgr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 0 {
		t.Fatalf("rows = %d", info.Rows)
	}
	mgr2, cat2, tbl2 := testEngine(t)
	res, err := Restore(dir, cat2, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 0 {
		t.Fatalf("restored %d rows", res.Rows)
	}
	check := mgr2.Begin()
	defer mgr2.Commit(check, nil)
	if n := tbl2.DataTable.CountVisible(check); n != 0 {
		t.Fatalf("%d rows visible", n)
	}
}

// TestRestoreFallsBackOnCatalogMismatch pins the crash-window rule: a
// manifest naming a table the durable catalog lacks (CreateTable crashed
// before catalog.json landed) is an invalid checkpoint to fall back from,
// not a permanent Open failure.
func TestRestoreFallsBackOnCatalogMismatch(t *testing.T) {
	dir := t.TempDir()
	mgr, cat, tbl := testEngine(t)
	insertRow(t, mgr, tbl, 1, "a", 10)
	if _, _, err := Take(nil, dir, cat, mgr, nil, nil); err != nil { // seq 1: accounts only
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("ghost", arrow.NewSchema(
		arrow.Field{Name: "x", Type: arrow.INT64},
	)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Take(nil, dir, cat, mgr, nil, nil); err != nil { // seq 2: includes ghost
		t.Fatal(err)
	}

	// Restore into an engine whose durable catalog never learned "ghost".
	mgr2, cat2, tbl2 := testEngine(t)
	res, err := Restore(dir, cat2, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest.Seq != 1 || res.Fallbacks != 1 {
		t.Fatalf("anchored on seq %d with %d fallbacks, want seq 1 / 1", res.Manifest.Seq, res.Fallbacks)
	}
	check := mgr2.Begin()
	defer mgr2.Commit(check, nil)
	if n := tbl2.DataTable.CountVisible(check); n != 1 {
		t.Fatalf("fallback restored %d rows", n)
	}
}
