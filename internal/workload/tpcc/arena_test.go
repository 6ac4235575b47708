package tpcc

import (
	"testing"

	"mainline/internal/catalog"
	"mainline/internal/gc"
	"mainline/internal/storage"
)

// TestArenaTracksLiveBytes runs Payment, which rewrites c_data (300–500
// bytes) on every call, with GC passes in between, and compares each
// table's hot-arena bytes with the spilled bytes its visible tuples
// reference: CUSTOMER's arena must not keep the overwritten values.
func TestArenaTracksLiveBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a TPC-C warehouse")
	}
	db, p := newDB(t, 1)
	g := gc.New(db.Mgr)
	wk := NewWorker(db, p, 1, 7)
	for i := range 20000 {
		if err := wk.Payment(); err != nil && err != ErrUserAbort {
			t.Fatal(err)
		}
		if i%500 == 0 {
			g.RunOnce()
		}
	}
	g.RunOnce()
	g.RunOnce()
	for _, tbl := range []*catalog.Table{db.Warehouse, db.District, db.Customer, db.History, db.NewOrder, db.Order, db.OrderLine, db.Item, db.Stock} {
		held, live := arenaUse(t, db, tbl)
		t.Logf("%-10s arena %9d B, live spilled %9d B", tbl.Name, held, live)
		if tbl == db.Customer && float64(held) > 1.25*float64(live) {
			t.Errorf("CUSTOMER arena holds %d bytes for %d live spilled bytes", held, live)
		}
	}
}

// arenaUse returns the bytes tbl's block arenas hold and the spilled
// varlen bytes its visible tuples reference.
func arenaUse(t *testing.T, db *Database, tbl *catalog.Table) (held, live int64) {
	t.Helper()
	for _, b := range tbl.Blocks() {
		held += b.ArenaBytes()
	}
	tx := db.Mgr.Begin()
	defer db.Mgr.Commit(tx, nil)
	err := tbl.Scan(tx, tbl.AllColumnsProjection(), func(_ storage.TupleSlot, row *storage.ProjectedRow) bool {
		for i := range row.P.NumCols() {
			if row.P.IsVarlenAt(i) && !row.IsNull(i) && len(row.Varlen(i)) > storage.VarlenInlineLimit {
				live += int64(len(row.Varlen(i)))
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return held, live
}
