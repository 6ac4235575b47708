package mainline

// Public-API tests for Table.Aggregate / Table.Join: oracle equivalence
// against the per-slot Select reference, worker-count invariance,
// Stats().Exec counters, the duplicate-projection typed error, and
// empty-table semantics.

import (
	"errors"
	"math"
	"testing"
)

// aggFixture builds a sales table (int64 id, int32 region, float64 amount,
// string city) with NULLs in every column but id, freezes the first blocks
// (dictionary encoding included via the engine's own transformer), and
// leaves a hot tail.
func aggFixture(t testing.TB) (*Engine, *Table) {
	t.Helper()
	eng, err := Open(WithTransformMode(TransformDictionary))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	tbl, err := eng.CreateTable("sales", NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "region", Type: INT32, Nullable: true},
		Field{Name: "amount", Type: FLOAT64, Nullable: true},
		Field{Name: "city", Type: STRING, Nullable: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	cities := []string{"aden", "brno", "cork", "drin", "espo"}
	insert := func(from, to int64) {
		err := eng.Update(func(tx *Txn) error {
			row := tbl.NewRow()
			for id := from; id < to; id++ {
				row.Reset()
				row.Set("id", id)
				if id%11 == 0 {
					row.Set("region", nil)
				} else {
					row.Set("region", int32(id%5))
				}
				if id%13 == 0 {
					row.Set("amount", nil)
				} else if id%89 == 0 {
					row.Set("amount", math.NaN())
				} else {
					// Exact halves: parallel float sums match serially.
					row.Set("amount", float64(id%600-300)/2)
				}
				if id%7 == 0 {
					row.Set("city", nil)
				} else {
					row.Set("city", cities[id%int64(len(cities))])
				}
				if _, err := tbl.Insert(tx, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	insert(0, 700)
	blk := tbl.Blocks()[len(tbl.Blocks())-1]
	blk.SetInsertHead(blk.Layout.NumSlots)
	if !eng.FreezeAll(10) {
		t.Fatal("could not freeze prefix")
	}
	insert(700, 900) // hot tail
	return eng, tbl
}

// scanOracle recomputes COUNT(*) / COUNT(amount) / SUM(amount) /
// MIN(id) / MAX(id) per city over the per-slot Select reference.
type cityAgg struct {
	rows, amounts int64
	sumAmount     float64
	minID, maxID  int64
}

func scanOracle(t *testing.T, eng *Engine, tbl *Table) map[string]*cityAgg {
	t.Helper()
	want := map[string]*cityAgg{}
	err := eng.View(func(tx *Txn) error {
		return selectScan(tbl, tx, []string{"id", "amount", "city"}, func(_ TupleSlot, row *Row) bool {
			key := "\x00" // NULL city group
			if !row.Null("city") {
				key = row.String("city")
			}
			st := want[key]
			if st == nil {
				st = &cityAgg{minID: math.MaxInt64, maxID: math.MinInt64}
				want[key] = st
			}
			st.rows++
			if !row.Null("amount") {
				st.amounts++
				st.sumAmount += row.Float64("amount")
			}
			if id := row.Int64("id"); true {
				if id < st.minID {
					st.minID = id
				}
				if id > st.maxID {
					st.maxID = id
				}
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestAggregateMatchesScan(t *testing.T) {
	eng, tbl := aggFixture(t)
	want := scanOracle(t, eng, tbl)
	err := eng.View(func(tx *Txn) error {
		for _, workers := range []int{1, 4} {
			res, err := tbl.Aggregate(tx, NewQuery().
				GroupBy("city").
				CountAll().Count("amount").Sum("amount").Min("id").Max("id").
				Workers(workers))
			if err != nil {
				return err
			}
			if res.Len() != len(want) {
				t.Fatalf("workers=%d: %d groups, want %d", workers, res.Len(), len(want))
			}
			for r := 0; r < res.Len(); r++ {
				key := "\x00"
				if !res.GroupIsNull(r, 0) {
					key = res.GroupString(r, 0)
				}
				st := want[key]
				if st == nil {
					t.Fatalf("workers=%d: group %q not in scan oracle", workers, key)
				}
				if res.Int(r, 0) != st.rows || res.Int(r, 1) != st.amounts {
					t.Fatalf("workers=%d group %q: counts (%d, %d) want (%d, %d)",
						workers, key, res.Int(r, 0), res.Int(r, 1), st.rows, st.amounts)
				}
				got, wantSum := res.Float(r, 2), st.sumAmount
				if got != wantSum && !(math.IsNaN(got) && math.IsNaN(wantSum)) {
					t.Fatalf("workers=%d group %q: SUM(amount) %v want %v", workers, key, got, wantSum)
				}
				if res.Int(r, 3) != st.minID || res.Int(r, 4) != st.maxID {
					t.Fatalf("workers=%d group %q: MIN/MAX(id) (%d, %d) want (%d, %d)",
						workers, key, res.Int(r, 3), res.Int(r, 4), st.minID, st.maxID)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggregateWhereAndAvg(t *testing.T) {
	eng, tbl := aggFixture(t)
	err := eng.View(func(tx *Txn) error {
		res, err := tbl.Aggregate(tx, NewQuery().
			Count("id").Sum("id").Avg("id").
			Where(Between("id", 100, 299)))
		if err != nil {
			return err
		}
		if res.Len() != 1 {
			t.Fatalf("global query: %d rows", res.Len())
		}
		// ids 100..299: count 200, sum 200*(100+299)/2.
		if res.Int(0, 0) != 200 || res.Int(0, 1) != 39900 {
			t.Fatalf("COUNT/SUM = %d/%d, want 200/39900", res.Int(0, 0), res.Int(0, 1))
		}
		if got := res.Float(0, 2); got != 39900.0/200 {
			t.Fatalf("AVG = %v, want %v", got, 39900.0/200)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggregateExecStats(t *testing.T) {
	eng, tbl := aggFixture(t)
	before := eng.Stats().Exec
	err := eng.View(func(tx *Txn) error {
		_, err := tbl.Aggregate(tx, NewQuery().GroupBy("city").CountAll().Workers(2))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	after := eng.Stats().Exec
	if after.Queries != before.Queries+1 {
		t.Fatalf("Queries: %d -> %d", before.Queries, after.Queries)
	}
	if after.MorselsDispatched <= before.MorselsDispatched ||
		after.RowsAggregated <= before.RowsAggregated ||
		after.WorkersLaunched <= before.WorkersLaunched {
		t.Fatalf("exec counters did not advance: %+v -> %+v", before, after)
	}
	if after.DictFastBlocks <= before.DictFastBlocks {
		t.Fatalf("dictionary fast path never engaged on the frozen prefix: %+v", after)
	}
}

func TestAggregateEmptyTablePublic(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tbl, err := eng.CreateTable("empty", NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "v", Type: FLOAT64, Nullable: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	err = eng.View(func(tx *Txn) error {
		res, err := tbl.Aggregate(tx, NewQuery().GroupBy("id").CountAll())
		if err != nil {
			return err
		}
		if res.Len() != 0 {
			t.Fatalf("grouped empty: %d groups", res.Len())
		}
		res, err = tbl.Aggregate(tx, NewQuery().CountAll().Sum("v"))
		if err != nil {
			return err
		}
		if res.Len() != 1 || res.Int(0, 0) != 0 || res.IsNull(0, 0) {
			t.Fatal("global empty: want one row with COUNT(*) = 0 (not NULL)")
		}
		if !res.IsNull(0, 1) {
			t.Fatal("global empty: SUM must be NULL")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAggregateUnknownColumn(t *testing.T) {
	eng, tbl := aggFixture(t)
	err := eng.View(func(tx *Txn) error {
		if _, err := tbl.Aggregate(tx, NewQuery().GroupBy("nope").CountAll()); err == nil {
			t.Fatal("unknown group column must error")
		}
		if _, err := tbl.Aggregate(tx, NewQuery().Sum("nope")); err == nil {
			t.Fatal("unknown aggregate column must error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateProjectionColumn pins the typed error for projections that
// name the same column twice, across every public entry point that builds
// a projection from a column list.
func TestDuplicateProjectionColumn(t *testing.T) {
	eng, tbl := aggFixture(t)
	if _, err := tbl.NewRowFor("id", "id"); !errors.Is(err, ErrDuplicateColumn) {
		t.Fatalf("NewRowFor: err = %v, want ErrDuplicateColumn", err)
	}
	err := eng.View(func(tx *Txn) error {
		err := tbl.Scan(tx, []string{"id", "id"}, func(_ TupleSlot, _ *Row) bool { return true })
		if !errors.Is(err, ErrDuplicateColumn) {
			t.Fatalf("Scan: err = %v, want ErrDuplicateColumn", err)
		}
		err = tbl.ScanBatches(tx, []string{"amount", "amount"}, nil, func(_ *Batch) bool { return true })
		if !errors.Is(err, ErrDuplicateColumn) {
			t.Fatalf("ScanBatches: err = %v, want ErrDuplicateColumn", err)
		}
		err = tbl.Filter(tx, Ge("id", 0), []string{"city", "city"}, func(_ TupleSlot, _ *Row) bool { return true })
		if !errors.Is(err, ErrDuplicateColumn) {
			t.Fatalf("Filter: err = %v, want ErrDuplicateColumn", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJoinPublic(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dim, err := eng.CreateTable("regions", NewSchema(
		Field{Name: "region", Type: INT32},
		Field{Name: "name", Type: STRING},
	))
	if err != nil {
		t.Fatal(err)
	}
	fact, err := eng.CreateTable("orders", NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "region", Type: INT32, Nullable: true},
		Field{Name: "qty", Type: INT64},
	))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"north", "south", "east"}
	err = eng.Update(func(tx *Txn) error {
		row := dim.NewRow()
		for i, n := range names {
			row.Reset()
			row.Set("region", int32(i))
			row.Set("name", n)
			if _, err := dim.Insert(tx, row); err != nil {
				return err
			}
		}
		orow := fact.NewRow()
		for i := int64(0); i < 50; i++ {
			orow.Reset()
			orow.Set("id", i)
			if i%10 == 0 {
				orow.Set("region", nil) // NULL keys never join
			} else {
				orow.Set("region", int32(i%5)) // regions 3, 4 dangle
			}
			orow.Set("qty", i)
			if _, err := fact.Insert(tx, orow); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: orders with region in {0, 1, 2} and a non-NULL key.
	wantMatches := 0
	perRegion := map[string]int64{}
	err = eng.View(func(tx *Txn) error {
		return selectScan(fact, tx, []string{"region", "qty"}, func(_ TupleSlot, row *Row) bool {
			if row.Null("region") {
				return true
			}
			if r := row.Int32("region"); r >= 0 && int(r) < len(names) {
				wantMatches++
				perRegion[names[r]] += row.Int64("qty")
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	got := 0
	gotPerRegion := map[string]int64{}
	err = eng.View(func(tx *Txn) error {
		return dim.Join(tx, fact, JoinSpec{
			BuildKey: "region", ProbeKey: "region",
			BuildCols: []string{"name"}, ProbeCols: []string{"qty"},
		}, func(build, probe *JoinRow) bool {
			got++
			gotPerRegion[string(build.Bytes(0))] += probe.Int(0)
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != wantMatches || got == 0 {
		t.Fatalf("join matches: got %d want %d", got, wantMatches)
	}
	for name, want := range perRegion {
		if gotPerRegion[name] != want {
			t.Fatalf("region %q: SUM(qty) %d want %d", name, gotPerRegion[name], want)
		}
	}
	if s := eng.Stats().Exec; s.JoinBuildRows == 0 || s.JoinProbeRows == 0 {
		t.Fatalf("join counters not populated: %+v", s)
	}
}
