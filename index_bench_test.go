package mainline

// Benchmarks for engine-managed indexed reads (ISSUE 5 acceptance): an
// indexed point read (GetBy — tree descent + MVCC re-verification) must
// beat a full vectorized Filter over a >=4-block frozen table by >=10x,
// because the Filter touches every block while the index touches one
// tuple. The range benchmark compares an ordered index sweep against the
// equivalent zone-map-pruned Filter.

import (
	"fmt"
	"testing"

	"mainline/internal/storage"
	"mainline/internal/transform"
)

// indexFixture builds a frozen table of blocks x perBlock rows with
// engine-maintained indexes and globally unique ids (block b holds
// b*perBlock .. (b+1)*perBlock-1).
func indexFixture(t testing.TB, blocks, perBlock int) (*Engine, *Table, *IndexHandle) {
	t.Helper()
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	tbl, err := eng.CreateTable("events", NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "payload", Type: STRING},
		Field{Name: "amount", Type: INT64},
	))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := tbl.CreateIndex("pk", "id")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < blocks; b++ {
		err := eng.Update(func(tx *Txn) error {
			row := tbl.NewRow()
			for i := 0; i < perBlock; i++ {
				id := int64(b*perBlock + i)
				row.Reset()
				row.Set("id", id)
				row.Set("payload", fmt.Sprintf("payload-%08d-some-tail", id))
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
	return eng, tbl, idx
}

// Index benchmark geometry: 4 near-full 1 MB blocks (the layout holds
// ~25.9k slots; 20k rows each keeps headroom), so the Filter's surviving
// block still costs a 20k-row kernel pass while the tree descent stays
// logarithmic.
const (
	indexBenchBlocks   = 4
	indexBenchPerBlock = 20000
)

// BenchmarkIndexedGet compares a point read through the engine-managed
// index against the two scan-based ways of answering the same query on a
// 4-block frozen table. Acceptance: indexed >= 10x filter-pushdown.
func BenchmarkIndexedGet(b *testing.B) {
	eng, tbl, idx := indexFixture(b, indexBenchBlocks, indexBenchPerBlock)
	defer eng.Close()
	total := int64(indexBenchBlocks * indexBenchPerBlock)

	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		out, err := tbl.NewRowFor("id", "amount")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			id := int64(i*2654435761) % total
			if id < 0 {
				id += total
			}
			err := eng.View(func(tx *Txn) error {
				_, ok, err := tx.GetBy(idx, out, id)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("id %d missing", id)
				}
				benchSink += out.Int64("amount")
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("filter-pushdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := int64(i*2654435761) % total
			if id < 0 {
				id += total
			}
			n := 0
			err := eng.View(func(tx *Txn) error {
				return tbl.Filter(tx, Eq("id", id), []string{"id", "amount"}, func(_ TupleSlot, row *Row) bool {
					benchSink += row.Int64("amount")
					n++
					return true
				})
			})
			if err != nil {
				b.Fatal(err)
			}
			if n != 1 {
				b.Fatalf("matched %d rows for id %d", n, id)
			}
		}
	})

	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := int64(i*2654435761) % total
			if id < 0 {
				id += total
			}
			err := eng.View(func(tx *Txn) error {
				return tbl.Scan(tx, []string{"id", "amount"}, func(_ TupleSlot, row *Row) bool {
					if row.Int64("id") == id {
						benchSink += row.Int64("amount")
						return false
					}
					return true
				})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexedRange sweeps 200 consecutive keys through RangeBy
// against the equivalent zone-map-pruned Filter (the Filter wins the
// bandwidth game inside one block; the index wins ordering and
// cross-block point placement).
func BenchmarkIndexedRange(b *testing.B) {
	eng, tbl, idx := indexFixture(b, indexBenchBlocks, indexBenchPerBlock)
	defer eng.Close()
	total := int64(indexBenchBlocks * indexBenchPerBlock)
	const span = 200

	b.Run("range-by", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := (int64(i) * 977) % (total - span)
			n := 0
			err := eng.View(func(tx *Txn) error {
				return tx.RangeBy(idx, []any{lo}, []any{lo + span}, []string{"amount"}, func(TupleSlot, *Row) bool {
					n++
					return true
				})
			})
			if err != nil {
				b.Fatal(err)
			}
			if n != span {
				b.Fatalf("range emitted %d rows", n)
			}
		}
	})

	b.Run("filter-pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := (int64(i) * 977) % (total - span)
			n := 0
			err := eng.View(func(tx *Txn) error {
				return tbl.Filter(tx, Between("id", lo, lo+span-1), []string{"amount"}, func(TupleSlot, *Row) bool {
					n++
					return true
				})
			})
			if err != nil {
				b.Fatal(err)
			}
			if n != span {
				b.Fatalf("filter matched %d rows", n)
			}
		}
	})
}
