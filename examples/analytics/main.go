// Analytics-on-OLTP: run a write-heavy workload, let the background
// pipeline freeze cold blocks, and execute analytical scans directly over
// the engine's Arrow memory while new transactions keep arriving — the
// serverless-HTAP picture the paper closes §5 with.
package main

import (
	"fmt"
	"log"
	"time"

	"mainline"
	"mainline/internal/arrow"
)

func main() {
	eng, err := mainline.Open(
		mainline.WithBackground(),
		mainline.WithColdThreshold(20*time.Millisecond),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	orders, err := eng.CreateTable("orders", mainline.NewSchema(
		mainline.Field{Name: "o_id", Type: mainline.INT64},
		mainline.Field{Name: "region", Type: mainline.STRING},
		mainline.Field{Name: "amount", Type: mainline.INT64},
	))
	if err != nil {
		log.Fatal(err)
	}

	regions := []string{"north-region", "south-region", "east-region", "west-region"}
	insert := func(from, to int) {
		err := eng.Update(func(tx *mainline.Txn) error {
			row := orders.NewRow()
			for i := from; i < to; i++ {
				row.Reset()
				row.Set("o_id", int64(i))
				row.Set("region", regions[i%len(regions)])
				row.Set("amount", int64(i%500))
				if _, err := orders.Insert(tx, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Phase 1: bulk OLTP ingest.
	insert(0, 20000)
	// Give the background pipeline time to cool and freeze the data.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		states := eng.BlockStates("orders")
		if states[3] > 0 && states[0] == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	states := eng.BlockStates("orders")
	fmt.Printf("after cooldown, block states [hot cooling freezing frozen]: %v\n", states)

	// Phase 2: analytics over engine memory. Frozen blocks are scanned in
	// place (no version checks, no copies); the export API hands each block
	// to the callback as raw Arrow arrays in a read-only transaction's
	// snapshot. A zero-copy batch is valid only inside the callback.
	total := int64(0)
	byRegion := map[string]int64{}
	var frozen, materialized int
	if err := eng.View(func(tx *mainline.Txn) error {
		var err error
		frozen, materialized, err = orders.ExportBatches(tx, func(rb *mainline.RecordBatch, _ bool) error {
			amounts := rb.Column("amount")
			region := rb.Column("region")
			sum, err := arrow.SumInt64(amounts)
			if err != nil {
				return err
			}
			total += sum
			for i := 0; i < rb.NumRows; i++ {
				byRegion[region.Str(i)] += amounts.Int64(i)
			}
			return nil
		})
		return err
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scan sources: %d zero-copy blocks, %d materialized\n", frozen, materialized)
	fmt.Printf("total amount: %d\n", total)
	for _, r := range regions {
		fmt.Printf("  %-13s %d\n", r, byRegion[r])
	}

	// Phase 2b: the same aggregation through the vectorized scan API —
	// predicate pushdown runs typed kernels directly over the frozen Arrow
	// buffers, and blocks whose zone maps cannot match are pruned without
	// being touched.
	var bigOrders, bigAmount int64
	if err := eng.View(func(tx *mainline.Txn) error {
		return orders.ScanBatches(tx, []string{"amount"}, mainline.Ge("amount", 400), func(b *mainline.Batch) bool {
			am := b.Column("amount")
			for i := 0; i < b.Len(); i++ {
				bigOrders++
				bigAmount += b.Int64(am, i)
			}
			return true
		})
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vectorized scan: %d orders with amount >= 400, totalling %d\n", bigOrders, bigAmount)

	// A point lookup outside every block's id range is answered by zone
	// maps alone — no block data is touched.
	if err := eng.View(func(tx *mainline.Txn) error {
		return orders.Filter(tx, mainline.Eq("o_id", int64(10_000_000)), nil,
			func(mainline.TupleSlot, *mainline.Row) bool { return true })
	}); err != nil {
		log.Fatal(err)
	}
	sc := eng.Stats().Scan
	fmt.Printf("scan stats: %d blocks in place, %d versioned, %d pruned by zone maps\n",
		sc.BlocksFrozen, sc.BlocksVersioned, sc.BlocksPruned)

	// Phase 3: writes keep working — the touched block flips back to hot
	// and the pipeline re-freezes it later.
	if err := eng.Update(func(tx *mainline.Txn) error {
		var firstSlot mainline.TupleSlot
		if err := orders.Scan(tx, []string{"o_id"}, func(slot mainline.TupleSlot, _ *mainline.Row) bool {
			firstSlot = slot
			return false
		}); err != nil {
			return err
		}
		u, err := orders.NewRowFor("amount")
		if err != nil {
			return err
		}
		u.Set("amount", int64(999999))
		return orders.Update(tx, firstSlot, u)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after a write, block states: %v (one block thawed)\n", eng.BlockStates("orders"))
	st := eng.Stats().Transform
	fmt.Printf("pipeline stats: %d groups compacted, %d tuples moved, %d blocks frozen\n",
		st.GroupsCompacted, st.TuplesMoved, st.BlocksFrozen)
}
