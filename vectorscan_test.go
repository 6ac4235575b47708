package mainline

import (
	"strings"
	"testing"

	"mainline/internal/core/coretest"
	"mainline/internal/storage"
	"mainline/internal/transform"
)

// selectScan is the reference side of the scan-equivalence tests: it
// visits the tuples visible to tx through per-slot Select calls (see
// coretest.SelectScan), never through the batch scan that Scan, Filter
// and Aggregate share.
func selectScan(tbl *Table, tx *Txn, cols []string, fn func(slot TupleSlot, row *Row) bool) error {
	proj, _, err := tbl.scanArgs(cols, nil)
	if err != nil {
		return err
	}
	row := &Row{schema: tbl.Schema}
	return coretest.SelectScan(tbl.DataTable, tx.raw, proj, func(slot storage.TupleSlot, pr *storage.ProjectedRow) bool {
		row.ProjectedRow = pr
		return fn(slot, row)
	})
}

// scanFixture builds a 4-block table (int64 id, string payload, int64
// amount) with 1000-spaced id ranges per block and freezes everything.
func scanFixture(t testing.TB, blocks, perBlock int) (*Engine, *Table) {
	t.Helper()
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	tbl, err := eng.CreateTable("events", NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "payload", Type: STRING, Nullable: true},
		Field{Name: "amount", Type: INT64},
	))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < blocks; b++ {
		err := eng.Update(func(tx *Txn) error {
			row := tbl.NewRow()
			for i := 0; i < perBlock; i++ {
				id := int64(b*1000 + i)
				row.Reset()
				row.Set("id", id)
				if id%9 == 0 {
					row.Set("payload", nil)
				} else {
					row.Set("payload", "payload-"+strings.Repeat("x", int(id%7))+"-tail")
				}
				row.Set("amount", id%500)
				if _, err := tbl.Insert(tx, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		blk := tbl.Blocks()[len(tbl.Blocks())-1]
		blk.SetInsertHead(blk.Layout.NumSlots)
	}
	// Freeze each block in place (no compaction, so every block keeps its
	// distinct id range — what the zone-map assertions rely on).
	for i := 0; i < 3; i++ {
		eng.RunGC()
	}
	for _, blk := range tbl.Blocks() {
		if blk.HasActiveVersions() {
			t.Fatal("version chains not pruned; cannot freeze")
		}
		blk.SetState(storage.StateFreezing)
		if err := transform.GatherBlock(blk, transform.ModeGather, nil); err != nil {
			t.Fatal(err)
		}
	}
	return eng, tbl
}

// TestFilterMatchesScan cross-checks Filter against the per-slot Select
// reference for every public predicate builder.
func TestFilterMatchesScan(t *testing.T) {
	eng, tbl := scanFixture(t, 4, 200)
	preds := []struct {
		name  string
		pred  *Pred
		match func(id int64, payload string, null bool) bool
	}{
		{"eq-int", Eq("id", 1042), func(id int64, _ string, _ bool) bool { return id == 1042 }},
		{"between", Between("id", 150, 2050), func(id int64, _ string, _ bool) bool { return id >= 150 && id <= 2050 }},
		{"lt", Lt("id", 180), func(id int64, _ string, _ bool) bool { return id < 180 }},
		{"ge", Ge("id", 3100), func(id int64, _ string, _ bool) bool { return id >= 3100 }},
		{"gt-amount", Gt("amount", 400), func(id int64, _ string, _ bool) bool { return id%500 > 400 }},
		{"eq-str", Eq("payload", "payload--tail"), func(_ int64, p string, null bool) bool { return !null && p == "payload--tail" }},
		{"le-str", Le("payload", "payload-xx-tail"), func(_ int64, p string, null bool) bool { return !null && p <= "payload-xx-tail" }},
	}
	err := eng.View(func(tx *Txn) error {
		for _, pc := range preds {
			want := map[int64]bool{}
			if err := selectScan(tbl, tx, nil, func(_ TupleSlot, row *Row) bool {
				if pc.match(row.Int64("id"), row.String("payload"), row.Null("payload")) {
					want[row.Int64("id")] = true
				}
				return true
			}); err != nil {
				return err
			}
			got := map[int64]bool{}
			if err := tbl.Filter(tx, pc.pred, nil, func(_ TupleSlot, row *Row) bool {
				got[row.Int64("id")] = true
				return true
			}); err != nil {
				return err
			}
			if len(got) != len(want) {
				t.Fatalf("%s: want %d rows, got %d", pc.name, len(want), len(got))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("%s: missing id %d", pc.name, id)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestZoneMapPruningStats asserts the frozen/pruned split the acceptance
// criteria require: a predicate selecting one block's id range must prune
// the other frozen blocks without taking their in-place read counter
// (BlocksFrozen counts exactly the blocks that took it), and a predicate
// outside every range must prune everything.
func TestZoneMapPruningStats(t *testing.T) {
	eng, tbl := scanFixture(t, 4, 200)
	before := eng.Stats().Scan
	var n int
	if err := eng.View(func(tx *Txn) error {
		return tbl.Filter(tx, Between("id", 2000, 2049), nil, func(TupleSlot, *Row) bool {
			n++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats().Scan
	if n != 50 {
		t.Fatalf("matched %d rows, want 50", n)
	}
	if p := after.BlocksPruned - before.BlocksPruned; p != 3 {
		t.Fatalf("pruned %d blocks, want 3", p)
	}
	if f := after.BlocksFrozen - before.BlocksFrozen; f != 1 {
		t.Fatalf("took the in-place read counter on %d blocks, want 1", f)
	}
	if e := after.TuplesEmitted - before.TuplesEmitted; e != 50 {
		t.Fatalf("emitted %d tuples, want 50", e)
	}

	// No block holds id 9999: the scan must not touch a single block.
	before = eng.Stats().Scan
	if err := eng.View(func(tx *Txn) error {
		return tbl.Filter(tx, Eq("id", 9999), nil, func(TupleSlot, *Row) bool {
			t.Fatal("impossible predicate matched")
			return false
		})
	}); err != nil {
		t.Fatal(err)
	}
	after = eng.Stats().Scan
	if p := after.BlocksPruned - before.BlocksPruned; p != 4 {
		t.Fatalf("pruned %d blocks, want 4", p)
	}
	if f := after.BlocksFrozen - before.BlocksFrozen; f != 0 {
		t.Fatalf("pruned scan took the in-place read counter on %d blocks", f)
	}
}

// TestScanBatchesPublicAPI drives the batch API end to end: column
// resolution, typed accessors, null handling, zero-copy frozen batches.
func TestScanBatchesPublicAPI(t *testing.T) {
	eng, tbl := scanFixture(t, 2, 100)
	var total int64
	var nulls, rows, frozenBatches int
	err := eng.View(func(tx *Txn) error {
		return tbl.ScanBatches(tx, []string{"amount", "payload"}, nil, func(b *Batch) bool {
			if b.Frozen() {
				frozenBatches++
			}
			am, pl := b.Column("amount"), b.Column("payload")
			if am < 0 || pl < 0 {
				t.Fatal("column resolution failed")
			}
			if b.Column("id") >= 0 {
				t.Fatal("unprojected column resolved")
			}
			for i := 0; i < b.Len(); i++ {
				rows++
				total += b.Int64(am, i)
				if b.IsNull(pl, i) {
					nulls++
				} else if !strings.HasPrefix(b.String(pl, i), "payload-") {
					t.Fatalf("bad payload %q", b.String(pl, i))
				}
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 200 || frozenBatches != 2 {
		t.Fatalf("rows=%d frozenBatches=%d", rows, frozenBatches)
	}
	var wantTotal int64
	var wantNulls int
	for b := 0; b < 2; b++ {
		for i := 0; i < 100; i++ {
			id := int64(b*1000 + i)
			wantTotal += id % 500
			if id%9 == 0 {
				wantNulls++
			}
		}
	}
	if total != wantTotal || nulls != wantNulls {
		t.Fatalf("total=%d want %d; nulls=%d want %d", total, wantTotal, nulls, wantNulls)
	}
}

// TestPredCompileErrors checks the typed error paths of predicate
// compilation.
func TestPredCompileErrors(t *testing.T) {
	eng, tbl := scanFixture(t, 1, 10)
	cases := []*Pred{
		Eq("nope", 1),         // unknown column
		Eq("id", "a string"),  // type mismatch: string vs int column
		Gt("payload", 42),     // type mismatch: int vs varlen column
		Between("id", 1, "x"), // mixed operand types
	}
	_ = eng.View(func(tx *Txn) error {
		for i, p := range cases {
			if err := tbl.Filter(tx, p, nil, func(TupleSlot, *Row) bool { return true }); err == nil {
				t.Fatalf("case %d: expected compile error", i)
			}
			if err := tbl.ScanBatches(tx, nil, p, func(*Batch) bool { return true }); err == nil {
				t.Fatalf("case %d: expected compile error (batches)", i)
			}
		}
		return nil
	})
}

// TestFilterHotPath exercises predicate pushdown over an un-frozen table
// (columnar scratch path), including a narrow projection that omits the
// predicate column.
func TestFilterHotPath(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tbl, err := eng.CreateTable("hot", NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "name", Type: STRING},
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(func(tx *Txn) error {
		row := tbl.NewRow()
		for i := 0; i < 3000; i++ { // spans multiple hot chunks
			row.Reset()
			row.Set("id", i)
			row.Set("name", "n-"+strings.Repeat("y", i%5))
			if _, err := tbl.Insert(tx, row); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := eng.View(func(tx *Txn) error {
		return tbl.Filter(tx, Between("id", 1500, 1502), []string{"name"}, func(_ TupleSlot, row *Row) bool {
			got = append(got, row.String("name"))
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "n-" || got[1] != "n-y" || got[2] != "n-yy" {
		t.Fatalf("hot filter got %v", got)
	}
}
