package mainline

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

// Select hands out varlen values that alias engine storage when that
// storage is immutable (hot-arena slabs, frozen buffers, cold batches)
// and copies the rest into the row. These tests pin both halves of that
// rule.

// TestFrozenValueSliceIsCapped: a scan of a thawed block reads old values
// straight from the frozen values buffer; appending to one must not write
// into the value stored after it.
func TestFrozenValueSliceIsCapped(t *testing.T) {
	eng, tbl := scanFixture(t, 1, 50)
	slots := slotsByID(t, eng, tbl)
	// A one-row update thaws the block; the other rows keep their frozen
	// handles.
	if err := eng.Update(func(tx *Txn) error {
		row, err := tbl.NewRowFor("amount")
		if err != nil {
			return err
		}
		row.Set("amount", int64(7))
		return tbl.Update(tx, slots[0], row)
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.View(func(tx *Txn) error {
		return tbl.Scan(tx, nil, func(_ TupleSlot, r *Row) bool {
			if r.Int64("id") == 1 {
				_ = append(r.Bytes("payload"), "CLOBBER!"...)
			}
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if got := selectPayload(t, eng, tbl, slots[2]); got != "payload-xx-tail" {
		t.Fatalf("row 2's stored payload reads %q after an append to row 1's value, want %q", got, "payload-xx-tail")
	}
}

// slotsByID maps each row's id to its slot.
func slotsByID(t *testing.T, eng *Engine, tbl *Table) map[int64]TupleSlot {
	t.Helper()
	slots := map[int64]TupleSlot{}
	if err := eng.View(func(tx *Txn) error {
		return tbl.Scan(tx, []string{"id"}, func(s TupleSlot, r *Row) bool {
			slots[r.Int64("id")] = s
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	return slots
}

func selectPayload(t *testing.T, eng *Engine, tbl *Table, slot TupleSlot) string {
	t.Helper()
	var got string
	if err := eng.View(func(tx *Txn) error {
		out := tbl.NewRow()
		if found, err := tbl.Select(tx, slot, out); err != nil || !found {
			return fmt.Errorf("select %v: found=%v err=%v", slot, found, err)
		}
		got = out.String("payload")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// aliasFixture is a one-block table over an object store: a spilled
// payload and an inline tag per row. The tier sweeper is parked so the
// test drives freezing and eviction itself.
func aliasFixture(t *testing.T) (*Engine, *Table, []TupleSlot) {
	t.Helper()
	fs, err := objstore.NewFSStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(WithObjectStoreBackend(fs), WithTierSweepInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	tbl, err := eng.CreateTable("alias", NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "payload", Type: STRING},
		Field{Name: "tag", Type: STRING},
	))
	if err != nil {
		t.Fatal(err)
	}
	var slots []TupleSlot
	if err := eng.Update(func(tx *Txn) error {
		row := tbl.NewRow()
		for i := 0; i < 40; i++ {
			row.Reset()
			row.Set("id", int64(i))
			row.Set("payload", aliasPayload(i, 0))
			row.Set("tag", aliasTag(i, 0))
			s, err := tbl.Insert(tx, row)
			if err != nil {
				return err
			}
			slots = append(slots, s)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return eng, tbl, slots
}

func aliasPayload(id, gen int) string {
	return fmt.Sprintf("payload-%02d-gen%d-%s", id, gen, strings.Repeat("p", id%5))
}

func aliasTag(id, gen int) string { return fmt.Sprintf("t%02d-g%d", id, gen) } // inline

// freezeBlocks prunes version chains and freezes every block of tbl in
// place (gather mode, which releases each block's hot arena).
func freezeBlocks(t *testing.T, eng *Engine, tbl *Table) {
	t.Helper()
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
		if blk.ArenaSize() != 0 {
			t.Fatal("gather kept the hot arena")
		}
	}
}

// heldValue is a value read by Select, kept past the read, and what it
// must still say.
type heldValue struct {
	label string
	v     []byte
	want  string
}

// TestSelectValuesSurviveFreezeThawUpdateEvict: values read by Select in
// every block state keep their bytes while the block is frozen (arena
// released), thawed and updated in place, frozen again and evicted, and
// rethawed by a second update.
func TestSelectValuesSurviveFreezeThawUpdateEvict(t *testing.T) {
	eng, tbl, slots := aliasFixture(t)
	var held []heldValue
	read := func(stage string, gen int) {
		t.Helper()
		if err := eng.View(func(tx *Txn) error {
			for _, i := range []int{3, 4} {
				out := tbl.NewRow() // not reused: its values stay held
				if found, err := tbl.Select(tx, slots[i], out); err != nil || !found {
					return fmt.Errorf("%s: select slot %d: found=%v err=%v", stage, i, found, err)
				}
				held = append(held,
					heldValue{fmt.Sprintf("%s payload %d", stage, i), out.Bytes("payload"), aliasPayload(i, gen)},
					heldValue{fmt.Sprintf("%s tag %d", stage, i), out.Bytes("tag"), aliasTag(i, gen)})
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(after string) {
		t.Helper()
		for _, h := range held {
			if string(h.v) != h.want {
				t.Fatalf("after %s: %s reads %q, want %q", after, h.label, h.v, h.want)
			}
		}
	}
	update := func(gen int) {
		t.Helper()
		if err := eng.Update(func(tx *Txn) error {
			row, err := tbl.NewRowFor("payload", "tag")
			if err != nil {
				return err
			}
			for _, i := range []int{3, 4} {
				row.Set("payload", aliasPayload(i, gen))
				row.Set("tag", aliasTag(i, gen))
				if err := tbl.Update(tx, slots[i], row); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	read("hot", 0)
	freezeBlocks(t, eng, tbl)
	check("freeze")
	read("frozen", 0)
	update(1)
	check("thaw and update")
	read("thawed", 1)
	freezeBlocks(t, eng, tbl)
	if n, err := eng.Admin().EvictAll(); err != nil || n != 1 {
		t.Fatalf("EvictAll = %d, %v; want 1 block", n, err)
	}
	check("refreeze and evict")
	read("evicted", 1)
	update(2)
	check("rethaw and update")
	read("rethawed", 2)
	check("the last read")
}

// TestSelectCopiesInlineValues: an inline value lives in the block's
// mutable entry, so the copy Select returns must not change when a later
// transaction overwrites that entry in place.
func TestSelectCopiesInlineValues(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		eng, tbl, slots := aliasFixture(t)
		if frozen {
			freezeBlocks(t, eng, tbl)
		}
		tx := begin(t, eng)
		out := tbl.NewRow()
		if found, err := tbl.Select(tx, slots[5], out); err != nil || !found {
			t.Fatalf("select: found=%v err=%v", found, err)
		}
		commit(t, tx)
		tag := out.Bytes("tag")
		if err := eng.Update(func(tx *Txn) error {
			row, err := tbl.NewRowFor("tag")
			if err != nil {
				return err
			}
			row.Set("tag", "OVERWRITTEN")
			return tbl.Update(tx, slots[5], row)
		}); err != nil {
			t.Fatal(err)
		}
		if want := aliasTag(5, 0); string(tag) != want {
			t.Fatalf("frozen=%v: selected inline value reads %q after an in-place update, want %q", frozen, tag, want)
		}
	}
}

// TestSelectAllocs: Select of a hot row with a spilled and an inline value
// and Select of a frozen row allocate nothing.
func TestSelectAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, frozen := range []bool{false, true} {
		eng, tbl, slots := aliasFixture(t)
		if frozen {
			freezeBlocks(t, eng, tbl)
		}
		tx := begin(t, eng)
		out := tbl.NewRow()
		allocs := testing.AllocsPerRun(200, func() {
			if found, err := tbl.Select(tx, slots[7], out); err != nil || !found {
				t.Fatalf("select: found=%v err=%v", found, err)
			}
		})
		if out.String("payload") != aliasPayload(7, 0) || out.String("tag") != aliasTag(7, 0) {
			t.Fatalf("frozen=%v: select read %q/%q", frozen, out.String("payload"), out.String("tag"))
		}
		commit(t, tx)
		if allocs != 0 {
			t.Fatalf("frozen=%v: Select allocates %.1f objects, want 0", frozen, allocs)
		}
	}
}
