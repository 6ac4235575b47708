package mainline

// Cold-tier concurrency stress: scans, batch scans, and indexed reads
// race EvictAll and writer-forced rethaws over a tiny cache budget, in
// barriered iterations so TSan gets clean happens-before edges (the PR 6
// HTAP stress pattern). Every reader verifies snapshot integrity — a row
// must show either its original amount or a complete writer value, never
// a torn mix — and each iteration ends with an exact equivalence check
// against the accumulated write history, followed by a refreeze so the
// next round evicts again.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mainline/internal/raceflag"
	"mainline/internal/storage"
	"mainline/internal/transform"
)

// stressStripe selects the rows the writer updates.
func stressStripe(id int64) bool { return id%97 == 13 }

// stressPayload is the deterministic payload the fixture inserted.
func stressPayload(id int64) (string, bool) {
	if id%9 == 0 {
		return "", true
	}
	return "pay-" + strings.Repeat("v", int(id%7)) + "-tail", false
}

func TestColdTierConcurrentStress(t *testing.T) {
	eng, tbl, _ := coldFixture(t, 1<<15) // tiny budget: constant cache churn
	idx := tbl.Index("by_id")
	if idx == nil {
		t.Fatal("index missing")
	}
	const total = coldBlocks * coldPerBlock

	iters, scanners := 12, 3
	if raceflag.Enabled {
		iters, scanners = 5, 2
	}
	if testing.Short() {
		iters = 3
	}

	// amounts holds the last committed write per stripe id; only the
	// single writer goroutine mutates it, and only between barriers.
	amounts := map[int64]int64{}
	expectAmount := func(id int64) int64 {
		if v, ok := amounts[id]; ok {
			return v
		}
		return id % 500
	}

	// checkRow verifies one materialized row against the snapshot
	// invariant: payload is immutable; amount is the original value or a
	// complete writer value (id*1e6 + k), never a torn mix.
	checkRow := func(id int64, payload string, null bool, amount int64) error {
		wantPay, wantNull := stressPayload(id)
		if null != wantNull || (!null && payload != wantPay) {
			return fmt.Errorf("id %d: payload %q/%v, want %q/%v", id, payload, null, wantPay, wantNull)
		}
		if amount == id%500 {
			return nil
		}
		if !stressStripe(id) || amount/1_000_000 != id {
			return fmt.Errorf("id %d: torn amount %d", id, amount)
		}
		return nil
	}

	scanPass := func() error {
		return eng.View(func(tx *Txn) error {
			seen := 0
			if err := tbl.Scan(tx, nil, func(_ TupleSlot, row *Row) bool {
				seen++
				if err := checkRow(row.Int64("id"), row.String("payload"), row.Null("payload"), row.Int64("amount")); err != nil {
					t.Error(err)
					return false
				}
				return true
			}); err != nil {
				return err
			}
			if seen != total {
				return fmt.Errorf("scan saw %d rows, want %d", seen, total)
			}
			res, err := tbl.Aggregate(tx, NewQuery().CountAll())
			if err != nil {
				return err
			}
			if res.Count(0, 0) != total {
				return fmt.Errorf("aggregate counted %d rows, want %d", res.Count(0, 0), total)
			}
			return nil
		})
	}

	batchPass := func() error {
		return eng.View(func(tx *Txn) error {
			seen := 0
			return tbl.ScanBatches(tx, nil, nil, func(b *Batch) bool {
				id, pl, am := b.Column("id"), b.Column("payload"), b.Column("amount")
				for i := 0; i < b.Len(); i++ {
					seen++
					var pay string
					if !b.IsNull(pl, i) {
						pay = b.String(pl, i)
					}
					if err := checkRow(b.Int64(id, i), pay, b.IsNull(pl, i), b.Int64(am, i)); err != nil {
						t.Error(err)
						return false
					}
				}
				return true
			})
		})
	}

	pointPass := func(seed int64) error {
		return eng.View(func(tx *Txn) error {
			out := tbl.NewRow()
			for k := int64(0); k < 32; k++ {
				id := (seed*131 + k*61) % total
				target := (id/1000)*1000 + id%coldPerBlock // map into a populated range
				_, ok, err := tx.GetBy(idx, out, target)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("GetBy(%d) missed", target)
				}
				if err := checkRow(out.Int64("id"), out.String("payload"), out.Null("payload"), out.Int64("amount")); err != nil {
					return err
				}
			}
			return nil
		})
	}

	// writePass updates the stripe through the index — point writes into
	// evicted blocks force the rethaw path under the readers' feet.
	writePass := func(iter int) error {
		k := int64(iter + 1)
		for blk := 0; blk < coldBlocks; blk++ {
			for i := 0; i < coldPerBlock; i++ {
				id := int64(blk*1000 + i)
				if !stressStripe(id) {
					continue
				}
				v := id*1_000_000 + k
				err := eng.Update(func(tx *Txn) error {
					out := tbl.NewRow()
					slot, ok, err := tx.GetBy(idx, out, id)
					if err != nil {
						return err
					}
					if !ok {
						return fmt.Errorf("writer: GetBy(%d) missed", id)
					}
					out.Set("amount", v)
					return tbl.Update(tx, slot, out)
				})
				if err != nil {
					return err
				}
				amounts[id] = v
			}
		}
		return nil
	}

	refreeze := func() {
		for i := 0; i < 3; i++ {
			eng.RunGC()
		}
		for i, blk := range tbl.Blocks() {
			if blk.State() != storage.StateHot || blk.HasActiveVersions() {
				continue
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
	}

	for iter := 0; iter < iters; iter++ {
		if _, err := eng.Admin().EvictAll(); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		errs := make(chan error, scanners+4)
		for s := 0; s < scanners; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				if s%2 == 0 {
					errs <- scanPass()
				} else {
					errs <- batchPass()
				}
			}(s)
		}
		wg.Add(1)
		go func(iter int) {
			defer wg.Done()
			errs <- pointPass(int64(iter))
		}(iter)
		wg.Add(1)
		go func(iter int) {
			defer wg.Done()
			errs <- writePass(iter)
		}(iter)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Re-evict mid-flight: races fetches, rethaws, and the cache.
			for k := 0; k < 3; k++ {
				if _, err := eng.Admin().EvictAll(); err != nil {
					errs <- err
					return
				}
				runtime.Gosched()
			}
			errs <- nil
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}

		// Barrier: exact equivalence against the accumulated write history.
		if err := eng.View(func(tx *Txn) error {
			seen := 0
			return tbl.Scan(tx, nil, func(_ TupleSlot, row *Row) bool {
				seen++
				id := row.Int64("id")
				if got, want := row.Int64("amount"), expectAmount(id); got != want {
					t.Fatalf("iter %d: id %d amount %d, want %d", iter, id, got, want)
				}
				return true
			})
		}); err != nil {
			t.Fatal(err)
		}

		refreeze()
	}

	if st := eng.Stats().Tier; st.Evictions == 0 || st.Rethaws == 0 || st.Fetches == 0 {
		t.Fatalf("stress never exercised the tier: %+v", st)
	}
}
