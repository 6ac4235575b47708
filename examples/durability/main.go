// Durability: commit transactions through the data directory's
// write-ahead log with group commit, close the engine, and reopen the same
// directory — Open restores the schema from the catalog and replays the
// WAL tail (§3.4). Durability is a per-transaction property:
// Begin(mainline.Durable()) makes Commit block until the group-commit
// fsync covers the transaction.
package main

import (
	"fmt"
	"log"
	"os"

	"mainline"
)

func main() {
	dir, err := os.MkdirTemp("", "mainline-durability")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// First life: write through the data directory's WAL.
	eng, err := mainline.Open(mainline.WithDataDir(dir), mainline.WithBackground())
	if err != nil {
		log.Fatal(err)
	}
	accounts, err := eng.CreateTable("accounts", mainline.NewSchema(
		mainline.Field{Name: "id", Type: mainline.INT64},
		mainline.Field{Name: "owner", Type: mainline.STRING},
		mainline.Field{Name: "balance", Type: mainline.INT64},
	))
	if err != nil {
		log.Fatal(err)
	}
	var slots []mainline.TupleSlot
	for i := 0; i < 100; i++ {
		// Durable transactions block in Commit until the fsync.
		tx, err := eng.Begin(mainline.Durable())
		if err != nil {
			log.Fatal(err)
		}
		row := accounts.NewRow()
		row.Set("id", int64(i))
		row.Set("owner", fmt.Sprintf("owner-%d", i))
		row.Set("balance", int64(1000))
		slot, err := accounts.Insert(tx, row)
		if err != nil {
			log.Fatal(err)
		}
		slots = append(slots, slot)
		if _, err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	// A transfer and a deletion, both durable, via the managed closure.
	if err := eng.Update(func(tx *mainline.Txn) error {
		u, err := accounts.NewRowFor("balance")
		if err != nil {
			return err
		}
		u.Set("balance", int64(250))
		if err := accounts.Update(tx, slots[0], u); err != nil {
			return err
		}
		u.Set("balance", int64(1750))
		if err := accounts.Update(tx, slots[1], u); err != nil {
			return err
		}
		return accounts.Delete(tx, slots[99])
	}, mainline.Durable()); err != nil {
		log.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote 101 durable transactions, reopening...")

	// Second life: reopen the same directory. No checkpoint was taken, so
	// everything comes back from the WAL tail.
	eng2, err := mainline.Open(mainline.WithDataDir(dir))
	if err != nil {
		log.Fatal(err)
	}
	defer eng2.Close()
	rec := eng2.Stats().Recovery
	fmt.Printf("replayed %d transactions (%d redo records) from %d WAL segments\n",
		rec.TailTxnsApplied, rec.TailRecordsApplied, rec.TailSegments)
	accounts2 := eng2.Table("accounts")
	if accounts2 == nil {
		log.Fatal("accounts table missing after reopen")
	}

	count := 0
	total := int64(0)
	if err := eng2.View(func(tx *mainline.Txn) error {
		return accounts2.Scan(tx, []string{"id", "balance"}, func(_ mainline.TupleSlot, row *mainline.Row) bool {
			count++
			total += row.Int64("balance")
			return true
		})
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d accounts, total balance %d\n", count, total)
	if count != 99 || total != 99*1000 {
		log.Fatalf("recovery mismatch: want 99 accounts / %d total", 99*1000)
	}
	fmt.Println("recovery verified: the transfer and the delete both replayed")
}
