package core

import (
	"testing"

	"mainline/internal/index"
	"mainline/internal/raceflag"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// allocEnv is testEnv with an index on column 0 and a commit hook that
// reads the redo buffer, so writes pay for redo encoding and index keys
// as they do on a durable engine.
func allocEnv(t *testing.T) (*txn.Manager, *DataTable, *TableIndex) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	m, table := testEnv(t)
	ti, err := NewTableIndex(table, "by_id", []KeyCol{{Col: 0, Kind: KeyInt, Width: 8}}, index.NewBTree())
	if err != nil {
		t.Fatal(err)
	}
	table.AttachIndex(ti)
	m.SetCommitHook(func(tx *txn.Transaction) {
		if tx.WriteSetSize() > 0 && len(tx.Redo()) == 0 {
			t.Error("writer committed with an empty redo buffer")
		}
		tx.FinishDurable(nil)
	})
	return m, table, ti
}

func allocRow(table *DataTable, id int64, name string) *storage.ProjectedRow {
	row := table.AllColumnsProjection().NewRow()
	row.SetInt64(0, id)
	row.SetVarlen(1, []byte(name))
	return row
}

// The write and point-read paths allocate only what they keep. Each
// budget is per operation inside one transaction; the transaction's
// pooled buffers grow geometrically, which AllocsPerRun's per-run average
// rounds away.

func TestInsertAllocs(t *testing.T) {
	m, table, _ := allocEnv(t)
	tx := m.Begin()
	row := allocRow(table, 0, "a value long enough to spill")
	id := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		id++
		row.SetInt64(0, id)
		if _, err := table.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
	})
	m.Commit(tx, nil)
	if allocs != 0 {
		t.Fatalf("indexed Insert allocates %.1f objects, want 0", allocs)
	}
}

func TestUpdateAllocs(t *testing.T) {
	m, table, _ := allocEnv(t)
	slot := insertRow(t, m, table, 1, "first")
	tx := m.Begin()
	upd := allocRow(table, 1, "an updated value long enough to spill")
	allocs := testing.AllocsPerRun(1000, func() {
		if err := table.Update(tx, slot, upd); err != nil {
			t.Fatal(err)
		}
	})
	m.Commit(tx, nil)
	// The before-image delta row (struct, value buffer, varlen slice
	// headers) lives on the version chain; nothing else may allocate.
	if allocs > 3 {
		t.Fatalf("Update allocates %.1f objects, want <= 3 (the before-image)", allocs)
	}
}

func TestDeleteAllocs(t *testing.T) {
	m, table, _ := allocEnv(t)
	const n = 1001
	slots := make([]storage.TupleSlot, 0, n)
	tx := m.Begin()
	for i := int64(0); i < n; i++ {
		s, err := table.Insert(tx, allocRow(table, i, "v"))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	m.Commit(tx, nil)
	tx = m.Begin()
	next := 0
	allocs := testing.AllocsPerRun(n-1, func() {
		if err := table.Delete(tx, slots[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	m.Commit(tx, nil)
	if allocs != 0 {
		t.Fatalf("indexed Delete allocates %.1f objects, want 0", allocs)
	}
}

func TestGetVisibleAllocs(t *testing.T) {
	m, table, ti := allocEnv(t)
	want := insertRow(t, m, table, 42, "a value long enough to spill")
	tx := m.Begin()
	out := table.AllColumnsProjection().NewRow()
	key := index.NewKeyBuilder(8).Int64(42).Bytes()
	allocs := testing.AllocsPerRun(1000, func() {
		if slot, ok := ti.GetVisible(tx, key, out); !ok || slot != want {
			t.Fatalf("GetVisible = %v, %v; want %v", slot, ok, want)
		}
	})
	m.Commit(tx, nil)
	if allocs != 0 {
		t.Fatalf("indexed GetVisible allocates %.1f objects, want 0", allocs)
	}
}

// TestHotScanAllocs: a batch scan of a hot block whose slots all carry
// version chains — committed inserts, and updates too new for the reader
// whose before-images it applies — allocates nothing per scan once its
// pooled scratch and batch exist.
func TestHotScanAllocs(t *testing.T) {
	m, table, _ := allocEnv(t)
	const n = 3000
	slots := make([]storage.TupleSlot, n)
	tx := m.Begin()
	for i := range slots {
		s, err := table.Insert(tx, allocRow(table, int64(i), "a value long enough to spill"))
		if err != nil {
			t.Fatal(err)
		}
		slots[i] = s
	}
	m.Commit(tx, nil)
	reader := m.Begin()
	tx = m.Begin()
	for i := 0; i < n; i += 3 {
		if err := table.Update(tx, slots[i], allocRow(table, int64(i), "new")); err != nil {
			t.Fatal(err)
		}
	}
	m.Commit(tx, nil)
	scan := func() {
		rows := 0
		if err := table.ScanBatches(reader, nil, nil, func(b *Batch) bool {
			rows += b.Len()
			return true
		}); err != nil || rows != n {
			t.Fatalf("scan saw %d rows (err %v), want %d", rows, err, n)
		}
	}
	scan() // fills the scratch pool
	allocs := testing.AllocsPerRun(100, scan)
	m.Commit(reader, nil)
	if allocs > 0 {
		t.Fatalf("hot ScanBatches allocates %.1f objects per scan, want 0", allocs)
	}
}
