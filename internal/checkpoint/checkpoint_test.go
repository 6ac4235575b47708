package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/checkpoint/manifestlog"
	"mainline/internal/objstore"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// testStore opens a manifest log and an FSStore in a fresh directory.
func testStore(t *testing.T) (*manifestlog.Log, *objstore.FSStore) {
	t.Helper()
	dir := t.TempDir()
	log, err := manifestlog.Open(nil, filepath.Join(dir, manifestlog.LogName))
	if err != nil {
		t.Fatal(err)
	}
	store, err := objstore.NewFSStore(filepath.Join(dir, "objects"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return log, store
}

// corrupt flips one byte in the middle of an FSStore object.
func corrupt(t *testing.T, store *objstore.FSStore, key string) {
	t.Helper()
	path := filepath.Join(store.Root(), filepath.FromSlash(key))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// referencedKeys lists every object key the log's retained versions name.
func referencedKeys(log *manifestlog.Log) []string {
	set := map[string]bool{}
	for _, v := range log.Versions() {
		for _, tc := range v.Tables {
			for _, c := range tc.Chunks {
				set[c.Key], set[c.Slots.Key] = true, true
			}
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

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
	log, store := testStore(t)
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

	info, err := Take(log, store, cat, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || info.Tables != 1 || info.Rows != 99 || info.BytesWritten == 0 {
		t.Fatalf("info = %+v", info)
	}

	// The chunk object must read back as a standalone Arrow IPC stream.
	v := log.Latest()
	if v == nil || len(v.Tables) != 1 || len(v.Tables[0].Chunks) != 1 {
		t.Fatalf("version record = %+v", v)
	}
	data, err := store.Get(v.Tables[0].Chunks[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	at, err := arrow.ReadTable(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if at.NumRows() != 99 {
		t.Fatalf("arrow table rows = %d", at.NumRows())
	}

	// An unchanged database checkpoints again for free.
	info2, err := Take(log, store, cat, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Seq != 2 || info2.BytesWritten != 0 {
		t.Fatalf("unchanged checkpoint = %+v, want seq 2 writing 0 bytes", info2)
	}

	// Restore into a fresh engine.
	mgr2, cat2, tbl2 := testEngine(t)
	res, err := Restore(log, store, cat2)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Rows != 99 || res.Version.Version != 2 || res.Fallbacks != 0 {
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
	log, store := testStore(t)
	mgr, cat, tbl := testEngine(t)
	insertRow(t, mgr, tbl, 1, "a", 10)
	if _, err := Take(log, store, cat, mgr, nil); err != nil {
		t.Fatal(err)
	}
	insertRow(t, mgr, tbl, 2, "b", 20)
	if _, err := Take(log, store, cat, mgr, nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest version's chunk object.
	key := log.Latest().Tables[0].Chunks[0].Key
	corrupt(t, store, key)

	mgr2, cat2, tbl2 := testEngine(t)
	res, err := Restore(log, store, cat2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version.Version != 1 || res.Fallbacks != 1 {
		t.Fatalf("res = version %d fallbacks %d, want fallback to version 1", res.Version.Version, res.Fallbacks)
	}
	check := mgr2.Begin()
	defer mgr2.Commit(check, nil)
	if n := tbl2.DataTable.CountVisible(check); n != 1 {
		t.Fatalf("restored %d rows from fallback", n)
	}
	// The damaged object is gone, so a later checkpoint of the same
	// content writes it afresh instead of referencing the damaged copy.
	if _, err := store.Get(key); err == nil {
		t.Fatal("corrupt object still in the store")
	}
}

func TestRestoreEmptyDirAndAllCorrupt(t *testing.T) {
	log, store := testStore(t)
	mgr, cat, tbl := testEngine(t)
	res, err := Restore(log, store, cat)
	if err != nil || res != nil {
		t.Fatalf("empty: %v %v", res, err)
	}

	// Three versions, the newest two damaged: Restore must error, not
	// silently start empty — and must not reach back to version 1, whose
	// WAL tail a running engine would already have truncated.
	for i := int64(1); i <= 3; i++ {
		insertRow(t, mgr, tbl, i, "a", 10)
		if _, err := Take(log, store, cat, mgr, nil); err != nil {
			t.Fatal(err)
		}
	}
	vs := log.Versions()
	if err := store.Delete(vs[2].Tables[0].Chunks[0].Slots.Key); err != nil {
		t.Fatal(err)
	}
	corrupt(t, store, vs[1].Tables[0].Chunks[0].Key)
	_, cat2, _ := testEngine(t)
	if _, err := Restore(log, store, cat2); err == nil {
		t.Fatal("restore with the newest two versions damaged must fail")
	}
}

func TestPruneKeepsTwo(t *testing.T) {
	log, store := testStore(t)
	mgr, cat, tbl := testEngine(t)
	for i := 0; i < 4; i++ {
		insertRow(t, mgr, tbl, int64(i), "x", 1)
		if _, err := Take(log, store, cat, mgr, nil); err != nil {
			t.Fatal(err)
		}
	}
	pruned, deleted, err := Prune(log, store, 2)
	if err != nil {
		t.Fatal(err)
	}
	vs := log.Versions()
	if pruned != 2 || len(vs) != 2 || vs[1].Version != 4 {
		t.Fatalf("pruned %d, kept %d versions, newest %d", pruned, len(vs), vs[len(vs)-1].Version)
	}
	// Each version had its own chunk and slot object; the two pruned
	// versions' four are gone and nothing unreferenced remains.
	keys, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	if want := referencedKeys(log); deleted != 4 || !equalKeys(keys, want) {
		t.Fatalf("deleted %d objects, store holds %v, want %v", deleted, keys, want)
	}
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFailedTakeLeavesNoObjects: an attempt that fails before its record
// append deletes the objects it created and leaves the log untouched.
func TestFailedTakeLeavesNoObjects(t *testing.T) {
	log, inner := testStore(t)
	store := objstore.NewFaultStore(inner)
	mgr, cat, tbl := testEngine(t)
	for i := 0; i < 10000; i++ { // two chunks
		insertRow(t, mgr, tbl, int64(i), "x", 1)
	}
	// The fourth put (the second chunk's slot object) fails.
	store.AddRule(objstore.Rule{Op: objstore.OpPut, Skip: 3, Count: 1, Err: os.ErrPermission})
	if _, err := Take(log, store, cat, mgr, nil); err == nil {
		t.Fatal("Take with a failing put succeeded")
	}
	if keys, _ := inner.List(""); len(keys) != 0 || log.Latest() != nil {
		t.Fatalf("failed attempt left objects %v / version %v", keys, log.Latest())
	}
	if _, err := Take(log, store, cat, mgr, nil); err != nil {
		t.Fatal(err)
	}
	if keys, _ := inner.List(""); len(keys) != 4 {
		t.Fatalf("retry stored %d objects, want 4", len(keys))
	}
}

func TestEmptyTableCheckpoint(t *testing.T) {
	log, store := testStore(t)
	mgr, cat, _ := testEngine(t)
	info, err := Take(log, store, cat, mgr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 0 {
		t.Fatalf("rows = %d", info.Rows)
	}
	mgr2, cat2, tbl2 := testEngine(t)
	res, err := Restore(log, store, cat2)
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
// version naming a table the durable catalog lacks (CreateTable crashed
// before catalog.json landed) is an invalid checkpoint to fall back from,
// not a permanent Open failure.
func TestRestoreFallsBackOnCatalogMismatch(t *testing.T) {
	log, store := testStore(t)
	mgr, cat, tbl := testEngine(t)
	insertRow(t, mgr, tbl, 1, "a", 10)
	if _, err := Take(log, store, cat, mgr, nil); err != nil { // version 1: accounts only
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("ghost", arrow.NewSchema(
		arrow.Field{Name: "x", Type: arrow.INT64},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := Take(log, store, cat, mgr, nil); err != nil { // version 2: includes ghost
		t.Fatal(err)
	}

	// Restore into an engine whose durable catalog never learned "ghost".
	mgr2, cat2, tbl2 := testEngine(t)
	res, err := Restore(log, store, cat2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version.Version != 1 || res.Fallbacks != 1 {
		t.Fatalf("anchored on version %d with %d fallbacks, want version 1 / 1", res.Version.Version, res.Fallbacks)
	}
	check := mgr2.Begin()
	defer mgr2.Commit(check, nil)
	if n := tbl2.DataTable.CountVisible(check); n != 1 {
		t.Fatalf("fallback restored %d rows", n)
	}
}
