package mainline

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mainline/internal/arrow"
	"mainline/internal/storage"
)

func itemSchema() *Schema {
	return NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "name", Type: STRING, Nullable: true},
		Field{Name: "price", Type: INT64},
	)
}

func openEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	eng, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

func begin(t *testing.T, eng *Engine, opts ...TxnOption) *Txn {
	t.Helper()
	tx, err := eng.Begin(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func commit(t *testing.T, tx *Txn) uint64 {
	t.Helper()
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func loadItems(t *testing.T, eng *Engine, tbl *Table, n int) []TupleSlot {
	t.Helper()
	slots := make([]TupleSlot, 0, n)
	for i := 0; i < n; i++ {
		tx := begin(t, eng)
		row := tbl.NewRow()
		row.SetInt64(0, int64(i))
		row.SetVarlen(1, []byte(fmt.Sprintf("item-%d-with-some-padding", i)))
		row.SetInt64(2, int64(i*100))
		slot, err := tbl.Insert(tx, row)
		if err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
		slots = append(slots, slot)
	}
	return slots
}

func TestEngineEndToEnd(t *testing.T) {
	eng := openEngine(t)
	tbl, err := eng.CreateTable("item", itemSchema())
	if err != nil {
		t.Fatal(err)
	}
	slots := loadItems(t, eng, tbl, 100)

	// Point read through a named row projection.
	out, err := tbl.NewRowFor("price", "id")
	if err != nil {
		t.Fatal(err)
	}
	tx := begin(t, eng)
	found, err := tbl.Select(tx, slots[42], out)
	if err != nil || !found {
		t.Fatalf("select: %v %v", found, err)
	}
	if out.Int64("price") != 4200 || out.Int64("id") != 42 {
		t.Fatalf("projected read: %d %d", out.Int64("price"), out.Int64("id"))
	}
	commit(t, tx)

	// Unknown column errors.
	if _, err := tbl.NewRowFor("nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
	// Duplicate table errors.
	if _, err := eng.CreateTable("item", itemSchema()); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if eng.Table("missing") != nil {
		t.Fatal("missing table resolved")
	}
	if eng.Table("item") == nil {
		t.Fatal("existing table not resolved")
	}
}

func TestEngineFreezeAllAndExport(t *testing.T) {
	eng := openEngine(t)
	tbl, _ := eng.CreateTable("item", itemSchema())
	loadItems(t, eng, tbl, 500)

	if !eng.FreezeAll(100) {
		t.Fatalf("FreezeAll failed; states %v", eng.BlockStates("item"))
	}
	states := eng.BlockStates("item")
	if states[3] == 0 {
		t.Fatalf("no frozen blocks: %v", states)
	}

	tx := begin(t, eng)
	var buf bytes.Buffer
	written, frozen, materialized, err := tbl.ExportIPC(&buf, tx)
	commit(t, tx)
	if err != nil {
		t.Fatal(err)
	}
	if written == 0 || frozen == 0 || materialized != 0 {
		t.Fatalf("export: written=%d frozen=%d materialized=%d", written, frozen, materialized)
	}

	// The stream parses back to the same data.
	tab, err := arrow.ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 500 {
		t.Fatalf("exported rows = %d", tab.NumRows())
	}
	sum := int64(0)
	for _, rb := range tab.Batches {
		s, err := arrow.SumInt64(rb.Column("price"))
		if err != nil {
			t.Fatal(err)
		}
		sum += s
	}
	want := int64(0)
	for i := 0; i < 500; i++ {
		want += int64(i * 100)
	}
	if sum != want {
		t.Fatalf("price sum = %d, want %d", sum, want)
	}
}

func TestEngineExportHotMaterializes(t *testing.T) {
	eng := openEngine(t)
	tbl, _ := eng.CreateTable("item", itemSchema())
	loadItems(t, eng, tbl, 50)
	tx := begin(t, eng)
	var buf bytes.Buffer
	_, frozen, materialized, err := tbl.ExportIPC(&buf, tx)
	commit(t, tx)
	if err != nil {
		t.Fatal(err)
	}
	if frozen != 0 || materialized == 0 {
		t.Fatalf("hot export: frozen=%d materialized=%d", frozen, materialized)
	}
	tab, err := arrow.ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 50 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
}

// TestEngineExportZeroCopySnapshotHolds pins the export snapshot: a
// zero-copy batch aliases frozen block memory, so a concurrent writer
// thawing that block must wait until the consumer is done with the batch
// — the batch keeps reading the exported value, never the writer's.
func TestEngineExportZeroCopySnapshotHolds(t *testing.T) {
	eng := openEngine(t)
	tbl, _ := eng.CreateTable("item", itemSchema())
	slots := loadItems(t, eng, tbl, 100)
	if !eng.FreezeAll(100) {
		t.Fatal("freeze failed")
	}
	block := eng.Admin().Catalog().Table("item").Blocks()[0]

	txA := begin(t, eng)
	updated := make(chan error, 1)
	seen := 0
	_, _, err := tbl.ExportBatches(txA, func(rb *RecordBatch, zeroCopy bool) error {
		if !zeroCopy {
			t.Fatal("frozen block exported by copy")
		}
		ids, price := rb.Column("id"), rb.Column("price")
		row := -1
		for i := 0; i < rb.NumRows; i++ {
			if ids.Int64(i) == 0 {
				row = i
			}
		}
		if row < 0 {
			return nil
		}
		seen++
		if got := price.Int64(row); got != 0 {
			t.Fatalf("exported price = %d, want 0", got)
		}
		go func() {
			updated <- eng.Update(func(txB *Txn) error {
				u, _ := tbl.NewRowFor("price")
				u.SetInt64(0, 999999)
				return tbl.Update(txB, slots[0], u)
			})
		}()
		// The writer flips the block to Thawing and then waits for this
		// reader to leave; until then the batch must keep its snapshot.
		for deadline := time.Now().Add(5 * time.Second); block.State() != storage.StateThawing; {
			if time.Now().After(deadline) {
				t.Fatalf("writer never reached the block (state %s)", block.State())
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		if got := price.Int64(row); got != 0 {
			t.Fatalf("zero-copy batch changed under a concurrent update: price = %d, want 0", got)
		}
		return nil
	})
	commit(t, txA)
	if err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("row 0 exported %d times", seen)
	}
	if err := <-updated; err != nil {
		t.Fatal(err)
	}
	txC := begin(t, eng)
	out, _ := tbl.NewRowFor("price")
	found, _ := tbl.Select(txC, slots[0], out)
	commit(t, txC)
	if !found || out.Int64("price") != 999999 {
		t.Fatalf("update lost: price = %d", out.Int64("price"))
	}
}

func TestEngineWriteThawsFrozenBlock(t *testing.T) {
	eng := openEngine(t)
	tbl, _ := eng.CreateTable("item", itemSchema())
	slots := loadItems(t, eng, tbl, 100)
	if !eng.FreezeAll(100) {
		t.Fatal("freeze failed")
	}
	tx := begin(t, eng)
	u, _ := tbl.NewRowFor("price")
	u.SetInt64(0, 999999)
	if err := tbl.Update(tx, slots[0], u); err != nil {
		t.Fatal(err)
	}
	commit(t, tx)
	states := eng.BlockStates("item")
	if states[0] == 0 {
		t.Fatalf("no hot block after write: %v", states)
	}
	// Re-freeze works.
	if !eng.FreezeAll(100) {
		t.Fatal("re-freeze failed")
	}
	tx2 := begin(t, eng)
	out, _ := tbl.NewRowFor("price")
	found, _ := tbl.Select(tx2, slots[0], out)
	commit(t, tx2)
	if !found || out.Int64("price") != 999999 {
		t.Fatalf("post-refreeze read: %d", out.Int64("price"))
	}
}

// TestEngineDurableCommitAndRecovery: a durable commit survives Close and
// reopen of the data directory with no checkpoint taken — Open replays it
// from the WAL tail.
func TestEngineDurableCommitAndRecovery(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(WithDataDir(dir), WithBackground())
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := eng.CreateTable("item", itemSchema())
	tx, err := eng.Begin(Durable())
	if err != nil {
		t.Fatal(err)
	}
	row := tbl.NewRow()
	row.SetInt64(0, 7)
	row.SetVarlen(1, []byte("durable"))
	row.SetInt64(2, 700)
	if _, err := tbl.Insert(tx, row); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the catalog brings the table back, the tail the row.
	eng2 := openEngine(t, WithDataDir(dir))
	if rec := eng2.Stats().Recovery; rec.CheckpointSeq != 0 || rec.TailTxnsApplied == 0 {
		t.Fatalf("recovery = %+v, want WAL-tail replay without a checkpoint", rec)
	}
	tbl2 := eng2.Table("item")
	if tbl2 == nil {
		t.Fatal("table not restored from the catalog")
	}
	tx2 := begin(t, eng2)
	count, err := tbl2.CountVisible(tx2)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, tx2)
	if count != 1 {
		t.Fatalf("recovered %d rows", count)
	}
}

func TestEngineDictionaryTransform(t *testing.T) {
	eng := openEngine(t, WithTransformMode(TransformDictionary))
	tbl, _ := eng.CreateTable("item", itemSchema())
	// Low-cardinality names.
	for i := 0; i < 200; i++ {
		tx := begin(t, eng)
		row := tbl.NewRow()
		row.SetInt64(0, int64(i))
		row.SetVarlen(1, []byte(fmt.Sprintf("category-%d-long-enough-to-spill", i%4)))
		row.SetInt64(2, int64(i))
		if _, err := tbl.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
		commit(t, tx)
	}
	if !eng.FreezeAll(100) {
		t.Fatal("freeze failed")
	}
	tx := begin(t, eng)
	var buf bytes.Buffer
	_, frozen, _, err := tbl.ExportIPC(&buf, tx)
	commit(t, tx)
	if err != nil || frozen == 0 {
		t.Fatalf("export: %v frozen=%d", err, frozen)
	}
	tab, err := arrow.ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The exported name column is dictionary-encoded.
	col := tab.Batches[0].Column("name")
	if col == nil || col.Type != arrow.DICT32 {
		t.Fatalf("name column type: %v", col)
	}
	if col.Dict.Length != 4 {
		t.Fatalf("dictionary entries = %d", col.Dict.Length)
	}
	for i := 0; i < col.Length; i++ {
		want := fmt.Sprintf("category-%d-long-enough-to-spill", tab.Batches[0].Column("id").Int64(i)%4)
		if col.Str(i) != want {
			t.Fatalf("row %d dict value %q", i, col.Str(i))
		}
	}
}

func TestEngineTransformStatsAndStates(t *testing.T) {
	eng := openEngine(t)
	tbl, _ := eng.CreateTable("item", itemSchema())
	slots := loadItems(t, eng, tbl, 300)
	// Delete a third to force compaction movement.
	tx := begin(t, eng)
	for i := 0; i < len(slots); i += 3 {
		if err := tbl.Delete(tx, slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, tx)
	if !eng.FreezeAll(100) {
		t.Fatal("freeze failed")
	}
	st := eng.Stats()
	if st.Transform.BlocksFrozen == 0 || st.Transform.GroupsCompacted == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.WAL.Enabled {
		t.Fatal("WAL stats enabled without a log")
	}
	tx2 := begin(t, eng)
	if got, err := tbl.CountVisible(tx2); err != nil || got != 200 {
		t.Fatalf("visible = %d (%v)", got, err)
	}
	commit(t, tx2)
}

func TestEngineIndexHelpers(t *testing.T) {
	eng := openEngine(t)
	tbl, _ := eng.CreateTable("item", itemSchema())
	// Rows inserted BEFORE the index exists are picked up by the backfill.
	slots := loadItems(t, eng, tbl, 10)
	idx, err := tbl.CreateIndex("pk", "id")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Index("pk") == nil || tbl.Index("missing") != nil {
		t.Fatal("index registry broken")
	}
	if got, want := idx.Columns(), []string{"id"}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("Columns = %v", got)
	}
	if idx.Len() != 10 {
		t.Fatalf("Len = %d after backfill", idx.Len())
	}
	err = eng.View(func(tx *Txn) error {
		out, err := tbl.NewRowFor("id", "price")
		if err != nil {
			return err
		}
		slot, ok, err := tx.GetBy(idx, out, 7)
		if err != nil || !ok || slot != slots[7] {
			t.Fatalf("GetBy = %v %v %v", slot, ok, err)
		}
		if out.Int64("price") != 700 {
			t.Fatalf("price = %d", out.Int64("price"))
		}
		// Wrong arity and wrong type are errors, not silent misses.
		if _, _, err := tx.GetBy(idx, nil); err == nil {
			t.Fatal("partial key accepted by GetBy")
		}
		if _, _, err := tx.GetBy(idx, nil, "seven"); err == nil {
			t.Fatal("string key accepted for integer column")
		}
		// Range read over [3, 7).
		var got []int64
		err = tx.RangeBy(idx, []any{3}, []any{7}, []string{"id"}, func(_ TupleSlot, row *Row) bool {
			got = append(got, row.Int64("id"))
			return true
		})
		if err != nil || len(got) != 4 || got[0] != 3 || got[3] != 6 {
			t.Fatalf("RangeBy = %v (%v)", got, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = storage.TupleSlot(0)
}

func TestNewShardedIndexValidation(t *testing.T) {
	if _, err := NewShardedIndex(4, 0); err != ErrInvalidPrefixLen {
		t.Fatalf("NewShardedIndex(4, 0) err = %v", err)
	}
	if idx, err := NewShardedIndex(4, 8); err != nil || idx == nil {
		t.Fatalf("NewShardedIndex(4, 8) = %v %v", idx, err)
	}
}
