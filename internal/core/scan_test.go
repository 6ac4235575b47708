package core_test

// Behavioral tests for the vectorized batch-scan engine: equivalence with
// a per-slot Select reference over mixed hot/frozen tables (including
// under concurrent writers), predicate kernels across the type domains,
// zone-map pruning, and pruning correctness when a pruned block is
// un-frozen mid-scan. They live in an external test package so real
// freezes can go through transform.GatherBlock.

import (
	"fmt"
	"math"
	"testing"

	"mainline/internal/core"
	"mainline/internal/core/coretest"
	"mainline/internal/gc"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
)

func scanEnv(t *testing.T) (*txn.Manager, *core.DataTable) {
	t.Helper()
	reg := storage.NewRegistry()
	layout, err := storage.NewBlockLayout([]storage.AttrDef{storage.FixedAttr(8), storage.VarlenAttr()})
	if err != nil {
		t.Fatal(err)
	}
	return txn.NewManager(reg), core.NewDataTable(reg, layout, 1, "scan-test")
}

// insertN inserts ids [from, to) with value strings; every nullEvery-th row
// gets a NULL varlen (0 disables).
func insertN(t *testing.T, m *txn.Manager, table *core.DataTable, from, to int64, nullEvery int) {
	t.Helper()
	tx := m.Begin()
	row := table.AllColumnsProjection().NewRow()
	for id := from; id < to; id++ {
		row.Reset()
		row.SetInt64(0, id)
		if nullEvery > 0 && id%int64(nullEvery) == 0 {
			row.SetNull(1)
		} else {
			row.SetVarlen(1, []byte(fmt.Sprintf("val-%06d", id)))
		}
		if _, err := table.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
	}
	m.Commit(tx, nil)
}

// sealBlock caps the current tail block so the next insert opens a new one.
func sealBlock(table *core.DataTable) {
	blocks := table.Blocks()
	b := blocks[len(blocks)-1]
	b.SetInsertHead(b.Layout.NumSlots)
}

// freezeBlocks prunes version chains and gathers every sealed block into
// the frozen state.
func freezeBlocks(t *testing.T, m *txn.Manager, blocks []*storage.Block, mode transform.Mode) {
	t.Helper()
	g := gc.New(m)
	for i := 0; i < 3; i++ {
		g.RunOnce()
	}
	for _, b := range blocks {
		if b.HasActiveVersions() {
			t.Fatal("chains not pruned; cannot freeze")
		}
		b.SetState(storage.StateFreezing)
		if err := transform.GatherBlock(b, mode, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// selectOracle collects id -> value through the per-slot Select reference
// ("\x00null" for NULLs).
func selectOracle(t *testing.T, table *core.DataTable, tx *txn.Transaction) map[int64]string {
	t.Helper()
	got := make(map[int64]string)
	err := coretest.SelectScan(table, tx, table.AllColumnsProjection(), func(_ storage.TupleSlot, row *storage.ProjectedRow) bool {
		v := "\x00null"
		if !row.IsNull(1) {
			v = string(row.Varlen(1))
		}
		got[row.Int64(0)] = v
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// batchScan collects id -> value via ScanBatches with an optional predicate.
func batchScan(t *testing.T, table *core.DataTable, tx *txn.Transaction, pred *core.Predicate) map[int64]string {
	t.Helper()
	got := make(map[int64]string)
	err := table.ScanBatches(tx, nil, pred, func(b *core.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			v := "\x00null"
			if !b.IsNull(1, i) {
				v = string(b.Bytes(1, i))
			}
			got[b.Int64(0, i)] = v
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func diffMaps(t *testing.T, want, got map[int64]string, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: size mismatch want %d got %d", label, len(want), len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: id %d: want %q got %q", label, k, v, got[k])
		}
	}
}

// mixedTable builds 2 frozen blocks (ids 0..400, one plain-gathered, one
// dictionary) plus a hot block (ids 400..600 with some updates/deletes).
func mixedTable(t *testing.T) (*txn.Manager, *core.DataTable) {
	m, table := scanEnv(t)
	insertN(t, m, table, 0, 200, 7)
	sealBlock(table)
	insertN(t, m, table, 200, 400, 0)
	sealBlock(table)
	blocks := table.Blocks()
	freezeBlocks(t, m, blocks[:1], transform.ModeGather)
	freezeBlocks(t, m, blocks[1:2], transform.ModeDictionary)
	insertN(t, m, table, 400, 600, 11)
	// Hot-block churn: update some rows, delete some, leave an uncommitted
	// write in flight.
	tx := m.Begin()
	urow, _ := storage.NewProjection(table.Layout(), []storage.ColumnID{1})
	i := 0
	_ = table.Scan(tx, table.AllColumnsProjection(), func(slot storage.TupleSlot, row *storage.ProjectedRow) bool {
		id := row.Int64(0)
		if id >= 400 {
			switch i % 5 {
			case 0:
				up := urow.NewRow()
				up.SetVarlen(0, []byte(fmt.Sprintf("upd-%06d", id)))
				if err := table.Update(tx, slot, up); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := table.Delete(tx, slot); err != nil {
					t.Fatal(err)
				}
			}
			i++
		}
		return true
	})
	m.Commit(tx, nil)
	return m, table
}

func TestScanBatchesMatchesScanMixed(t *testing.T) {
	m, table := mixedTable(t)
	tx := m.Begin()
	defer m.Commit(tx, nil)
	diffMaps(t, selectOracle(t, table, tx), batchScan(t, table, tx, nil), "mixed")
}

func TestScanBatchesIntPredicate(t *testing.T) {
	m, table := mixedTable(t)
	tx := m.Begin()
	defer m.Commit(tx, nil)
	want := make(map[int64]string)
	for id, v := range selectOracle(t, table, tx) {
		if id >= 150 && id <= 450 {
			want[id] = v
		}
	}
	got := batchScan(t, table, tx, core.NewIntPred(0, 150, 450))
	diffMaps(t, want, got, "int-range")
}

func TestScanBatchesBytesPredicate(t *testing.T) {
	m, table := mixedTable(t)
	tx := m.Begin()
	defer m.Commit(tx, nil)
	lo, hi := []byte("val-000100"), []byte("val-000350")
	want := make(map[int64]string)
	for id, v := range selectOracle(t, table, tx) {
		if v != "\x00null" && v >= string(lo) && v < string(hi) {
			want[id] = v
		}
	}
	// [lo, hi): strict upper bound, spans the plain-gathered block, the
	// dictionary block, and part of the hot block's original values.
	got := batchScan(t, table, tx, core.NewBytesPred(1, lo, hi, false, true))
	diffMaps(t, want, got, "bytes-range")
}

func TestScanBatchesBytesEqOnDictionary(t *testing.T) {
	m, table := scanEnv(t)
	insertN(t, m, table, 0, 100, 0)
	sealBlock(table)
	freezeBlocks(t, m, table.Blocks()[:1], transform.ModeDictionary)
	tx := m.Begin()
	defer m.Commit(tx, nil)
	key := []byte("val-000042")
	got := batchScan(t, table, tx, core.NewBytesPred(1, key, key, false, false))
	if len(got) != 1 || got[42] != string(key) {
		t.Fatalf("dict eq: got %v", got)
	}
}

func TestScanBatchesFloatPredicate(t *testing.T) {
	m, table := scanEnv(t)
	tx := m.Begin()
	row := table.AllColumnsProjection().NewRow()
	vals := []float64{-3.5, -0.1, 0, 1.25, 2.5, math.NaN(), 7.75, 100}
	for _, v := range vals {
		row.Reset()
		row.SetFloat64(0, v)
		row.SetVarlen(1, []byte("x"))
		if _, err := table.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
	}
	m.Commit(tx, nil)
	sealBlock(table)
	freezeBlocks(t, m, table.Blocks()[:1], transform.ModeGather)

	rtx := m.Begin()
	defer m.Commit(rtx, nil)
	count := 0
	// (-0.1, 7.75]: strict lower, inclusive upper; NaN must not match.
	pred := core.NewFloatPred(0, -0.1, 7.75, true, false)
	err := table.ScanBatches(rtx, nil, pred, func(b *core.Batch) bool {
		count += b.Len()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 4 { // 0, 1.25, 2.5, 7.75
		t.Fatalf("float range matched %d rows, want 4", count)
	}
}

func TestScanBatchesPredColumnNotProjected(t *testing.T) {
	m, table := mixedTable(t)
	tx := m.Begin()
	defer m.Commit(tx, nil)
	proj, err := storage.NewProjection(table.Layout(), []storage.ColumnID{1})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	err = table.ScanBatches(tx, proj, core.NewIntPred(0, 100, 199), func(b *core.Batch) bool {
		if b.NumCols() != 1 {
			t.Fatalf("projection leaked hidden column: %d cols", b.NumCols())
		}
		n += b.Len()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// ids 100..199 all live in the first (frozen) block and none are
	// deleted there.
	if n != 100 {
		t.Fatalf("matched %d rows, want 100", n)
	}
}

func TestScanBatchesStopEarly(t *testing.T) {
	m, table := mixedTable(t)
	tx := m.Begin()
	defer m.Commit(tx, nil)
	calls := 0
	err := table.ScanBatches(tx, nil, nil, func(b *core.Batch) bool {
		calls++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("scan continued after stop: %d calls", calls)
	}
}

func TestZoneMapPruning(t *testing.T) {
	m, table := scanEnv(t)
	for b := int64(0); b < 4; b++ {
		insertN(t, m, table, b*1000, b*1000+100, 0)
		sealBlock(table)
	}
	freezeBlocks(t, m, table.Blocks()[:4], transform.ModeGather)

	tx := m.Begin()
	defer m.Commit(tx, nil)
	before := table.ScanStatsSnapshot()
	got := batchScan(t, table, tx, core.NewIntPred(0, 2000, 2050))
	after := table.ScanStatsSnapshot()

	if len(got) != 51 {
		t.Fatalf("matched %d rows, want 51", len(got))
	}
	// Three of the four frozen blocks have disjoint id ranges: pruned by
	// zone map without taking the in-place read counter.
	if p := after.BlocksPruned - before.BlocksPruned; p != 3 {
		t.Fatalf("pruned %d blocks, want 3", p)
	}
	if f := after.BlocksFrozen - before.BlocksFrozen; f != 1 {
		t.Fatalf("scanned %d frozen blocks in place, want 1", f)
	}
	if v := after.BlocksVersioned - before.BlocksVersioned; v != 0 {
		t.Fatalf("versioned-scanned %d blocks, want 0", v)
	}
	if e := after.TuplesEmitted - before.TuplesEmitted; e != 51 {
		t.Fatalf("emitted %d tuples, want 51", e)
	}

	// A varlen predicate outside every block's [min,max] prunes everything.
	before = table.ScanStatsSnapshot()
	got = batchScan(t, table, tx, core.NewBytesPred(1, []byte("zzz"), nil, false, false))
	after = table.ScanStatsSnapshot()
	if len(got) != 0 {
		t.Fatalf("impossible bytes pred matched %d rows", len(got))
	}
	if p := after.BlocksPruned - before.BlocksPruned; p != 4 {
		t.Fatalf("pruned %d blocks, want 4", p)
	}
	if f := after.BlocksFrozen - before.BlocksFrozen; f != 0 {
		t.Fatalf("in-place counter taken on %d pruned blocks", f)
	}
}

// TestZoneMapPruningUnfreezeMidScan drives the race the pruning protocol
// must survive: a block is pruned by zone map, then a writer un-freezes it
// mid-scan and installs a value that WOULD match the predicate. The
// in-flight scan's snapshot predates the write, so the result must not
// change; a later snapshot must see the new value through the hot path.
func TestZoneMapPruningUnfreezeMidScan(t *testing.T) {
	m, table := scanEnv(t)
	insertN(t, m, table, 5000, 5100, 0) // block A: ids 5000.., pruned
	sealBlock(table)
	insertN(t, m, table, 0, 100, 0) // block B: ids 0..99, matches
	sealBlock(table)
	freezeBlocks(t, m, table.Blocks()[:2], transform.ModeGather)

	// Find a slot in the pruned block to rewrite mid-scan.
	var bSlot storage.TupleSlot
	{
		tx := m.Begin()
		_ = table.Scan(tx, table.AllColumnsProjection(), func(slot storage.TupleSlot, row *storage.ProjectedRow) bool {
			if row.Int64(0) == 5000 {
				bSlot = slot
				return false
			}
			return true
		})
		m.Commit(tx, nil)
	}

	pred := core.NewIntPred(0, 0, 99) // matches block B only; A is pruned
	tx := m.Begin()
	pruneBase := table.ScanStatsSnapshot().BlocksPruned
	got := 0
	err := table.ScanBatches(tx, nil, pred, func(b *core.Batch) bool {
		// Mid-scan: block A has already been pruned (the scan visits it
		// first). Un-freeze it by writing id 5000 -> 50, which matches the
		// predicate but commits after the scan's snapshot.
		wtx := m.Begin()
		proj, _ := storage.NewProjection(table.Layout(), []storage.ColumnID{0})
		up := proj.NewRow()
		up.SetInt64(0, 50)
		if err := table.Update(wtx, bSlot, up); err != nil {
			t.Errorf("mid-scan update: %v", err)
		}
		m.Commit(wtx, nil)
		got += b.Len()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Commit(tx, nil)
	if got != 100 {
		t.Fatalf("in-flight scan saw %d rows, want 100 (snapshot predates the write)", got)
	}
	if p := table.ScanStatsSnapshot().BlocksPruned - pruneBase; p != 1 {
		t.Fatalf("pruned %d blocks mid-scan, want 1", p)
	}

	// A fresh snapshot must see the thawed block's new value via the
	// versioned path (zone map is gone). Count rows, not distinct ids: the
	// rewritten row's id duplicates one of block B's.
	tx2 := m.Begin()
	defer m.Commit(tx2, nil)
	rows2, saw50 := 0, 0
	err = table.ScanBatches(tx2, nil, pred, func(b *core.Batch) bool {
		for i := 0; i < b.Len(); i++ {
			rows2++
			if b.Int64(0, i) == 50 {
				saw50++
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows2 != 101 {
		t.Fatalf("fresh scan saw %d rows, want 101", rows2)
	}
	if saw50 != 2 {
		t.Fatalf("fresh scan saw id 50 %d times, want 2 (block B's own + the rewritten row)", saw50)
	}
}
