package mainline

// Oracle equivalence suite for the cold tier: every read path — full
// scans, predicate scans (tuple and batch), aggregates, indexed point
// and range reads — must return bit-identical results over fully
// evicted blocks as over the all-in-RAM oracle, for every cache budget
// (zero retention, one byte, unlimited), including dictionary-encoded
// blocks. Zone-map-pruned predicates over cold blocks must incur zero
// object-store reads, counter-asserted against a CountingStore.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mainline/internal/objstore"
	"mainline/internal/raceflag"
	"mainline/internal/storage"
	"mainline/internal/transform"
)

const (
	coldBlocks   = 4
	coldPerBlock = 200
)

// coldFixture builds an engine over a CountingStore, a 4-block table
// (int64 id, nullable string payload, int64 amount) with 1000-spaced id
// ranges per block, freezes blocks alternating plain-gather and
// dictionary encodings, and indexes id. Blocks stay resident; the test
// evicts explicitly. The sweep interval is set far out so the background
// sweeper cannot race the assertions.
func coldFixture(t testing.TB, budget int64) (*Engine, *Table, *objstore.CountingStore) {
	t.Helper()
	fs, err := objstore.NewFSStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := objstore.NewCountingStore(fs)
	eng, err := Open(
		WithObjectStoreBackend(cs),
		WithBlockCacheBytes(budget),
		WithTierSweepInterval(time.Hour),
	)
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
	for b := 0; b < coldBlocks; b++ {
		err := eng.Update(func(tx *Txn) error {
			row := tbl.NewRow()
			for i := 0; i < coldPerBlock; i++ {
				id := int64(b*1000 + i)
				row.Reset()
				row.Set("id", id)
				if id%9 == 0 {
					row.Set("payload", nil)
				} else {
					row.Set("payload", "pay-"+strings.Repeat("v", int(id%7))+"-tail")
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
	for i := 0; i < 3; i++ {
		eng.RunGC()
	}
	for i, blk := range tbl.Blocks() {
		if blk.HasActiveVersions() {
			t.Fatal("version chains not pruned; cannot freeze")
		}
		mode := transform.ModeGather
		if i%2 == 1 {
			mode = transform.ModeDictionary
		}
		blk.SetState(storage.StateFreezing)
		if err := transform.GatherBlock(blk, mode); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.CreateIndex("by_id", "id"); err != nil {
		t.Fatal(err)
	}
	return eng, tbl, cs
}

type coldRow struct {
	payload string
	null    bool
	amount  int64
}

type coldOracle struct {
	rows     map[int64]coldRow
	filtered map[int64]int64 // Between(id, 1000, 1999): id -> amount
	count    int64
	sum      int64
	min, max int64
}

// captureOracle records, while every block is resident, the table's rows
// through the per-slot Select reference plus the filter and aggregate
// results the evicted table must reproduce.
func captureOracle(t *testing.T, eng *Engine, tbl *Table) *coldOracle {
	t.Helper()
	o := &coldOracle{rows: map[int64]coldRow{}, filtered: map[int64]int64{}}
	err := eng.View(func(tx *Txn) error {
		if err := selectScan(tbl, tx, nil, func(_ TupleSlot, row *Row) bool {
			o.rows[row.Int64("id")] = coldRow{
				payload: row.String("payload"),
				null:    row.Null("payload"),
				amount:  row.Int64("amount"),
			}
			return true
		}); err != nil {
			return err
		}
		if err := tbl.Filter(tx, Between("id", 1000, 1999), nil, func(_ TupleSlot, row *Row) bool {
			o.filtered[row.Int64("id")] = row.Int64("amount")
			return true
		}); err != nil {
			return err
		}
		res, err := tbl.Aggregate(tx, NewQuery().CountAll().Sum("amount").Min("id").Max("id"))
		if err != nil {
			return err
		}
		if res.Len() != 1 {
			return fmt.Errorf("aggregate returned %d rows", res.Len())
		}
		o.count = res.Count(0, 0)
		o.sum = res.Int(0, 1)
		o.min = res.Int(0, 2)
		o.max = res.Int(0, 3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.rows) != coldBlocks*coldPerBlock || len(o.filtered) != coldPerBlock {
		t.Fatalf("oracle capture incomplete: %d rows, %d filtered", len(o.rows), len(o.filtered))
	}
	return o
}

// assertScansEqual re-runs every scan shape over the (evicted) table and
// compares against the resident-captured oracle.
func assertScansEqual(t *testing.T, eng *Engine, tbl *Table, o *coldOracle, label string) {
	t.Helper()
	err := eng.View(func(tx *Txn) error {
		// Full tuple scan.
		got := map[int64]coldRow{}
		if err := tbl.Scan(tx, nil, func(_ TupleSlot, row *Row) bool {
			got[row.Int64("id")] = coldRow{
				payload: row.String("payload"),
				null:    row.Null("payload"),
				amount:  row.Int64("amount"),
			}
			return true
		}); err != nil {
			return err
		}
		if len(got) != len(o.rows) {
			t.Fatalf("%s: scan %d rows, want %d", label, len(got), len(o.rows))
		}
		for id, want := range o.rows {
			if got[id] != want {
				t.Fatalf("%s: id %d = %+v, want %+v", label, id, got[id], want)
			}
		}
		// Predicate scan, tuple path.
		gotF := map[int64]int64{}
		if err := tbl.Filter(tx, Between("id", 1000, 1999), nil, func(_ TupleSlot, row *Row) bool {
			gotF[row.Int64("id")] = row.Int64("amount")
			return true
		}); err != nil {
			return err
		}
		if len(gotF) != len(o.filtered) {
			t.Fatalf("%s: filter %d rows, want %d", label, len(gotF), len(o.filtered))
		}
		for id, amount := range o.filtered {
			if gotF[id] != amount {
				t.Fatalf("%s: filtered id %d amount %d, want %d", label, id, gotF[id], amount)
			}
		}
		// Predicate scan, batch path (cold batches incl. dictionary columns).
		gotB := map[int64]coldRow{}
		if err := tbl.ScanBatches(tx, nil, Between("id", 1000, 1999), func(b *Batch) bool {
			id, pl, am := b.Column("id"), b.Column("payload"), b.Column("amount")
			for i := 0; i < b.Len(); i++ {
				r := coldRow{null: b.IsNull(pl, i), amount: b.Int64(am, i)}
				if !r.null {
					r.payload = b.String(pl, i)
				}
				gotB[b.Int64(id, i)] = r
			}
			return true
		}); err != nil {
			return err
		}
		if len(gotB) != len(o.filtered) {
			t.Fatalf("%s: batch filter %d rows, want %d", label, len(gotB), len(o.filtered))
		}
		for id := range o.filtered {
			if gotB[id] != o.rows[id] {
				t.Fatalf("%s: batch id %d = %+v, want %+v", label, id, gotB[id], o.rows[id])
			}
		}
		// Aggregates.
		res, err := tbl.Aggregate(tx, NewQuery().CountAll().Sum("amount").Min("id").Max("id"))
		if err != nil {
			return err
		}
		if res.Count(0, 0) != o.count || res.Int(0, 1) != o.sum || res.Int(0, 2) != o.min || res.Int(0, 3) != o.max {
			t.Fatalf("%s: aggregate = (%d, %d, %d, %d), want (%d, %d, %d, %d)", label,
				res.Count(0, 0), res.Int(0, 1), res.Int(0, 2), res.Int(0, 3),
				o.count, o.sum, o.min, o.max)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// assertIndexEqual runs indexed point and range reads. These may rethaw
// blocks back to residency, so callers run them after the cold-scan
// assertions.
func assertIndexEqual(t *testing.T, eng *Engine, tbl *Table, o *coldOracle, label string) {
	t.Helper()
	idx := tbl.Index("by_id")
	if idx == nil {
		t.Fatalf("%s: index lost", label)
	}
	err := eng.View(func(tx *Txn) error {
		out := tbl.NewRow()
		for _, id := range []int64{0, 5, 1042, 2199, 3000, 3199} {
			_, ok, err := tx.GetBy(idx, out, id)
			if err != nil {
				return err
			}
			if !ok {
				t.Fatalf("%s: GetBy(%d) missed", label, id)
			}
			want := o.rows[id]
			got := coldRow{payload: out.String("payload"), null: out.Null("payload"), amount: out.Int64("amount")}
			if got != want {
				t.Fatalf("%s: GetBy(%d) = %+v, want %+v", label, id, got, want)
			}
		}
		if _, ok, err := tx.GetBy(idx, nil, int64(9999)); err != nil || ok {
			t.Fatalf("%s: GetBy(9999) = %v, %v; want miss", label, ok, err)
		}
		var rangeIDs []int64
		if err := tx.RangeBy(idx, []any{int64(2150)}, []any{int64(2160)}, nil, func(_ TupleSlot, row *Row) bool {
			rangeIDs = append(rangeIDs, row.Int64("id"))
			return true
		}); err != nil {
			return err
		}
		if len(rangeIDs) != 10 || rangeIDs[0] != 2150 || rangeIDs[9] != 2159 {
			t.Fatalf("%s: RangeBy = %v", label, rangeIDs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func evictAll(t *testing.T, eng *Engine) {
	t.Helper()
	n, err := eng.Admin().EvictAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != coldBlocks {
		t.Fatalf("EvictAll evicted %d blocks, want %d", n, coldBlocks)
	}
}

// TestColdScanEquivalence sweeps the cache budgets the ISSUE requires:
// zero retention (every cold read refetches), one byte (LRU thrash with
// the keep-newest rule), and unlimited.
func TestColdScanEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"none", BlockCacheNone},
		{"tiny", 1},
		{"unlimited", BlockCacheUnlimited},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, tbl, cs := coldFixture(t, tc.budget)
			o := captureOracle(t, eng, tbl)
			if cs.Gets() != 0 {
				t.Fatalf("resident oracle capture hit the store %d times", cs.Gets())
			}
			evictAll(t, eng)
			if st := eng.Stats().Tier; st.Evictions != coldBlocks {
				t.Fatalf("Stats().Tier.Evictions = %d, want %d", st.Evictions, coldBlocks)
			}

			before := eng.Stats().Scan
			assertScansEqual(t, eng, tbl, o, tc.name)
			after := eng.Stats().Scan
			if after.BlocksCold == before.BlocksCold {
				t.Fatal("scans never touched the cold path — blocks not actually evicted?")
			}
			if cs.Gets() == 0 {
				t.Fatal("cold scans never read the store")
			}

			// Second identical pass stays equivalent (cache-warm for the
			// unlimited budget, refetch for the others).
			gets := cs.Gets()
			assertScansEqual(t, eng, tbl, o, tc.name+"/second-pass")
			switch tc.budget {
			case BlockCacheUnlimited:
				if cs.Gets() != gets {
					t.Fatalf("unlimited cache refetched: %d -> %d gets", gets, cs.Gets())
				}
			case BlockCacheNone:
				if cs.Gets() == gets {
					t.Fatal("zero-retention cache served a cold block without fetching")
				}
			}

			// Indexed reads last: they may rethaw blocks to residency.
			assertIndexEqual(t, eng, tbl, o, tc.name)
		})
	}
}

// TestColdZonePruningNeverFetches is the acceptance counter-assertion: a
// predicate whose range no block's zone map can match must prune every
// evicted block with zero object-store reads, and a single-block
// predicate must fetch exactly that block.
func TestColdZonePruningNeverFetches(t *testing.T) {
	eng, tbl, cs := coldFixture(t, BlockCacheNone)
	o := captureOracle(t, eng, tbl)
	evictAll(t, eng)

	// Impossible range: all four cold blocks pruned, not one store read.
	before, gets := eng.Stats().Scan, cs.Gets()
	if err := eng.View(func(tx *Txn) error {
		return tbl.Filter(tx, Eq("id", 9999), nil, func(TupleSlot, *Row) bool {
			t.Fatal("impossible predicate matched")
			return false
		})
	}); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats().Scan
	if p := after.BlocksPrunedCold - before.BlocksPrunedCold; p != coldBlocks {
		t.Fatalf("pruned %d cold blocks, want %d", p, coldBlocks)
	}
	if cs.Gets() != gets {
		t.Fatalf("pruned-everything scan read the store %d times", cs.Gets()-gets)
	}

	// Single-block range: exactly one fetch, three cold prunes.
	before, gets = eng.Stats().Scan, cs.Gets()
	n := 0
	if err := eng.View(func(tx *Txn) error {
		return tbl.Filter(tx, Between("id", 1000, 1999), nil, func(_ TupleSlot, row *Row) bool {
			if o.filtered[row.Int64("id")] != row.Int64("amount") {
				t.Fatalf("wrong amount for id %d", row.Int64("id"))
			}
			n++
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	after = eng.Stats().Scan
	if n != coldPerBlock {
		t.Fatalf("matched %d rows, want %d", n, coldPerBlock)
	}
	if p := after.BlocksPrunedCold - before.BlocksPrunedCold; p != coldBlocks-1 {
		t.Fatalf("pruned %d cold blocks, want %d", p, coldBlocks-1)
	}
	if c := after.BlocksCold - before.BlocksCold; c != 1 {
		t.Fatalf("served %d cold blocks, want 1", c)
	}
	if d := cs.Gets() - gets; d != 1 {
		t.Fatalf("single-block cold scan read the store %d times, want 1", d)
	}
}

// TestColdCacheHitScanAllocs: a batch scan whose blocks are all evicted
// and cached — plain-gathered and dictionary-encoded alike — allocates
// nothing, so a warm cold scan adds no GC pressure a resident one lacks.
// Skipped under -race, where sync.Pool drops entries on purpose.
func TestColdCacheHitScanAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	eng, tbl, cs := coldFixture(t, BlockCacheUnlimited)
	evictAll(t, eng)
	tx := begin(t, eng)
	defer tx.Abort()
	rows := 0
	scan := func() {
		rows = 0
		if err := tbl.ScanBatches(tx, nil, nil, func(b *Batch) bool {
			rows += b.Len()
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	scan() // fills the cache
	gets, cold := cs.Gets(), eng.Stats().Scan.BlocksCold
	if allocs := testing.AllocsPerRun(50, scan); allocs != 0 {
		t.Fatalf("cache-hit cold scan allocates %.1f objects, want 0", allocs)
	}
	if rows != coldBlocks*coldPerBlock {
		t.Fatalf("scan saw %d rows, want %d", rows, coldBlocks*coldPerBlock)
	}
	if cs.Gets() != gets || eng.Stats().Scan.BlocksCold == cold {
		t.Fatalf("scans were not cache hits on evicted blocks: gets %d -> %d", gets, cs.Gets())
	}
}
