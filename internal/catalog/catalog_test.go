package catalog

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mainline/internal/arrow"
	"mainline/internal/gc"
	"mainline/internal/index"
	"mainline/internal/raceflag"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
)

func testCatalog(t *testing.T) (*txn.Manager, *Catalog) {
	t.Helper()
	reg := storage.NewRegistry()
	return txn.NewManager(reg), New(reg)
}

func sampleSchema() *arrow.Schema {
	return arrow.NewSchema(
		arrow.Field{Name: "id", Type: arrow.INT64},
		arrow.Field{Name: "name", Type: arrow.STRING, Nullable: true},
		arrow.Field{Name: "qty", Type: arrow.INT16},
	)
}

func TestLayoutForSchema(t *testing.T) {
	layout, err := LayoutForSchema(sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if layout.NumColumns() != 3 {
		t.Fatalf("columns = %d", layout.NumColumns())
	}
	if layout.AttrSize(0) != 8 || !layout.IsVarlen(1) || layout.AttrSize(2) != 2 {
		t.Fatal("attribute mapping wrong")
	}
	// BOOL is rejected (bit-packed columns cannot be updated in place).
	_, err = LayoutForSchema(arrow.NewSchema(arrow.Field{Name: "b", Type: arrow.BOOL}))
	if err == nil {
		t.Fatal("BOOL column accepted")
	}
}

func TestCatalogRegistry(t *testing.T) {
	_, cat := testCatalog(t)
	tbl, err := cat.CreateTable("orders", sampleSchema())
	if err != nil {
		t.Fatal(err)
	}
	if cat.Table("orders") != tbl || cat.TableByID(tbl.ID) != tbl {
		t.Fatal("lookup broken")
	}
	if cat.Table("missing") != nil || cat.TableByID(999) != nil {
		t.Fatal("phantom lookups")
	}
	if _, err := cat.CreateTable("orders", sampleSchema()); err == nil {
		t.Fatal("duplicate accepted")
	}
	if len(cat.Tables()) != 1 {
		t.Fatal("Tables() wrong")
	}
	if cat.DataTables()[tbl.ID] != tbl.DataTable {
		t.Fatal("DataTables() wrong")
	}
}

func TestTableIndexes(t *testing.T) {
	mgr, cat := testCatalog(t)
	tbl, _ := cat.CreateTable("t", sampleSchema())
	idx, err := tbl.CreateIndex(IndexSpec{Name: "pk", Columns: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Index("pk") != idx || tbl.Index("nope") != nil {
		t.Fatal("index registry broken")
	}
	if _, err := tbl.CreateIndex(IndexSpec{Name: "pk", Columns: []string{"id"}}); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := tbl.CreateIndex(IndexSpec{Name: "bad", Columns: []string{"ghost"}}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := tbl.CreateIndex(IndexSpec{Name: "empty"}); err == nil {
		t.Fatal("empty column list accepted")
	}
	if len(tbl.Indexes()) != 1 || len(tbl.IndexSpecs()) != 1 {
		t.Fatal("index snapshots wrong")
	}

	// Engine-managed maintenance: inserts appear after commit, keyed reads
	// verify visibility through the version chain.
	loadRows(t, mgr, tbl, 10)
	if idx.Len() != 10 {
		t.Fatalf("entries after load = %d, want 10", idx.Len())
	}
	// Backfill over already-indexed rows deduplicates.
	btx := mgr.Begin()
	if _, err := idx.Backfill(btx); err != nil {
		t.Fatal(err)
	}
	mgr.Commit(btx, nil)
	if idx.Len() != 10 {
		t.Fatalf("entries after backfill = %d, want 10", idx.Len())
	}
	tx := mgr.Begin()
	key := index.NewKeyBuilder(8).Int64(7).Bytes()
	slot, ok := idx.GetVisible(tx, key, nil)
	if !ok || !slot.Valid() {
		t.Fatal("indexed point read missed a committed row")
	}
	mgr.Commit(tx, nil)
}

func loadRows(t *testing.T, mgr *txn.Manager, tbl *Table, n int) {
	t.Helper()
	tx := mgr.Begin()
	row := tbl.AllColumnsProjection().NewRow()
	for i := 0; i < n; i++ {
		row.Reset()
		row.SetInt64(0, int64(i))
		if i%5 == 0 {
			row.SetNull(1)
		} else {
			row.SetVarlen(1, []byte(fmt.Sprintf("value-%d-padded-to-spill", i)))
		}
		row.SetInt16(2, int16(i%100))
		if _, err := tbl.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Commit(tx, nil)
}

func freeze(t *testing.T, mgr *txn.Manager, tbl *Table) {
	t.Helper()
	g := gc.New(mgr)
	obs := transform.NewObserver()
	obs.Watch(tbl.DataTable)
	g.SetObserver(obs)
	tr := transform.New(mgr, g, obs, transform.DefaultConfig())
	for i := 0; i < 20; i++ {
		g.RunOnce()
		tr.ForcePass()
	}
}

func TestExportBlockZeroCopyRejectsHot(t *testing.T) {
	mgr, cat := testCatalog(t)
	tbl, _ := cat.CreateTable("t", sampleSchema())
	loadRows(t, mgr, tbl, 10)
	if _, err := tbl.ExportBlockZeroCopy(tbl.Blocks()[0]); err == nil {
		t.Fatal("zero-copy export of hot block accepted")
	}
}

func TestExportZeroCopyMatchesMaterialized(t *testing.T) {
	mgr, cat := testCatalog(t)
	tbl, _ := cat.CreateTable("t", sampleSchema())
	loadRows(t, mgr, tbl, 500)

	// Every row's name, keyed by id, read inside the export callback (a
	// zero-copy batch is only valid there).
	export := func() (rows map[int64]string, frozen, mat, nameNulls int) {
		rows = map[int64]string{}
		tx := mgr.Begin()
		defer mgr.Commit(tx, nil)
		frozen, mat, err := tbl.StreamBatches(tx, func(rb *arrow.RecordBatch, _ bool) error {
			id := rb.Column("id")
			name := rb.Column("name")
			nameNulls += name.NullCount
			for i := 0; i < rb.NumRows; i++ {
				v := ""
				if name.IsValid(i) {
					v = name.Str(i)
				}
				rows[id.Int64(i)] = v
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows, frozen, mat, nameNulls
	}

	// Materialize while hot.
	hot, frozen, mat, _ := export()
	if frozen != 0 || mat == 0 {
		t.Fatalf("hot export: frozen=%d mat=%d", frozen, mat)
	}

	freeze(t, mgr, tbl)
	cold, frozen2, mat2, coldNulls := export()
	if frozen2 == 0 || mat2 != 0 {
		t.Fatalf("cold export: frozen=%d mat=%d", frozen2, mat2)
	}

	// Same logical contents either way.
	if len(hot) != 500 || len(cold) != 500 {
		t.Fatalf("rows: hot=%d cold=%d", len(hot), len(cold))
	}
	for k, v := range hot {
		if cold[k] != v {
			t.Fatalf("row %d: hot %q cold %q", k, v, cold[k])
		}
	}
	// Null counts surface in the zero-copy arrays.
	if coldNulls == 0 {
		t.Fatal("null count lost in zero-copy export")
	}
}

// setQty commits qty=v for the row at slot.
func setQty(t *testing.T, mgr *txn.Manager, tbl *Table, slot storage.TupleSlot, v int16) {
	t.Helper()
	proj, err := tbl.ProjectionOf("qty")
	if err != nil {
		t.Error(err)
		return
	}
	u := proj.NewRow()
	u.SetInt16(0, v)
	tx := mgr.Begin()
	if err := tbl.Update(tx, slot, u); err != nil {
		mgr.Abort(tx)
		t.Error(err)
		return
	}
	mgr.Commit(tx, nil)
}

// A writer may move a frozen block to Thawing while an in-place reader
// still holds its registration; the block's buffers stay put until the
// reader leaves, so the wrap under that registration must still succeed
// and still show the frozen values.
func TestWrapFrozenUnderThawingRegistration(t *testing.T) {
	mgr, cat := testCatalog(t)
	tbl, _ := cat.CreateTable("t", sampleSchema())
	loadRows(t, mgr, tbl, 100)
	freeze(t, mgr, tbl)
	b := tbl.Blocks()[0]
	if !b.BeginInPlaceRead() {
		t.Fatal("block not frozen")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		setQty(t, mgr, tbl, storage.NewTupleSlot(b.ID, 0), 999)
	}()
	for b.State() != storage.StateThawing {
		time.Sleep(time.Millisecond)
	}
	if _, err := tbl.ExportBlockZeroCopy(b); err == nil {
		t.Fatal("ExportBlockZeroCopy accepted a thawing block")
	}
	rb, err := tbl.FrozenBatch(b)
	if err != nil {
		t.Fatalf("wrap under a held registration: %v", err)
	}
	if rb.NumRows != 100 || rb.Column("qty").Int16(0) != 0 {
		t.Fatalf("wrapped batch: rows=%d qty[0]=%d", rb.NumRows, rb.Column("qty").Int16(0))
	}
	b.EndInPlaceRead()
	<-done
}

// Writers landing on frozen blocks while StreamBatches loops must never
// fail an export: a block that starts thawing after the scan registered on
// it is still exported from its pinned buffers.
func TestStreamBatchesUnderThawingWriters(t *testing.T) {
	mgr, cat := testCatalog(t)
	tbl, _ := cat.CreateTable("t", sampleSchema())
	const n = 500
	loadRows(t, mgr, tbl, n)
	freeze(t, mgr, tbl)
	b := tbl.Blocks()[0]

	var frozen, writes int
	// export runs one StreamBatches pass; inPlace, if set, runs inside the
	// callback of every zero-copy batch.
	export := func(inPlace func(rb *arrow.RecordBatch)) {
		tx := mgr.Begin()
		rows := 0
		f, _, err := tbl.StreamBatches(tx, func(rb *arrow.RecordBatch, zeroCopy bool) error {
			rows += rb.NumRows
			if zeroCopy && inPlace != nil {
				inPlace(rb)
			}
			return nil
		})
		mgr.Commit(tx, nil)
		if err != nil {
			t.Errorf("export under thawing writers: %v", err)
		}
		if rows != n {
			t.Errorf("export rows = %d, want %d", rows, n)
		}
		frozen += f
	}
	// write updates one row as soon as the block is frozen again.
	write := func(i int) bool {
		if b.State() != storage.StateFrozen {
			return false
		}
		setQty(t, mgr, tbl, storage.NewTupleSlot(b.ID, uint32(i%n)), int16(i))
		return true
	}

	if raceflag.Enabled {
		// Phased: refreeze with nothing else running, then start one
		// write inside the export callback and let it reach Thawing there,
		// so the thaw always lands while the scan holds the registration
		// and the batch must not change under it. Full contact cannot be
		// TSan-clean: an export that finds the block already thawed reads
		// its bytes while the writer writes them in place, a deliberate
		// tuple-byte race (torn reads are repaired, see
		// core.DataTable.Update and the CI race-job note).
		for i := 0; i < 20 && !t.Failed(); i++ {
			freeze(t, mgr, tbl)
			done := make(chan bool, 1)
			started := false
			export(func(rb *arrow.RecordBatch) {
				qty := rb.Column("qty")
				before := qty.Int16(i % n)
				started = true
				go func() { done <- write(i) }()
				for b.State() != storage.StateThawing {
					time.Sleep(10 * time.Microsecond)
				}
				if got := qty.Int16(i % n); got != before {
					t.Errorf("zero-copy batch changed under its registration: qty %d -> %d", before, got)
				}
			})
			if started && <-done {
				writes++
			}
		}
	} else {
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // refreeze whatever the writer thawed
			defer wg.Done()
			g := gc.New(mgr)
			obs := transform.NewObserver()
			obs.Watch(tbl.DataTable)
			g.SetObserver(obs)
			tr := transform.New(mgr, g, obs, transform.DefaultConfig())
			for !stop.Load() {
				g.RunOnce()
				tr.ForcePass()
			}
		}()
		var w atomic.Int64
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if write(i) {
					w.Add(1)
				} else {
					time.Sleep(10 * time.Microsecond)
				}
			}
		}()
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline) && !t.Failed(); {
			export(nil)
		}
		stop.Store(true)
		wg.Wait()
		writes = int(w.Load())
	}
	if frozen == 0 || writes == 0 {
		t.Fatalf("stress did not overlap: zero-copy blocks=%d writes to frozen=%d", frozen, writes)
	}
}

func TestExportZeroCopySharesMemory(t *testing.T) {
	mgr, cat := testCatalog(t)
	tbl, _ := cat.CreateTable("t", sampleSchema())
	loadRows(t, mgr, tbl, 100)
	freeze(t, mgr, tbl)
	b := tbl.Blocks()[0]
	rb, err := tbl.ExportBlockZeroCopy(b)
	if err != nil {
		t.Fatal(err)
	}
	// The fixed column's buffer must alias block memory: mutating the raw
	// block shows through (proof of zero-copy; done on a quiesced block).
	raw := b.FrozenFixedData(0)
	old := raw[0]
	raw[0] ^= 0xFF
	if rb.Columns[0].Values[0] == old {
		t.Fatal("zero-copy export copied the buffer")
	}
	raw[0] = old
}
