package tier_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/gc"
	"mainline/internal/objstore"
	"mainline/internal/storage"
	"mainline/internal/tier"
	"mainline/internal/transform"
	"mainline/internal/txn"
)

// frozenBlockSpilled builds a table (id INT64, v STRING) with varlen
// values long enough to spill (>12 bytes), returning the table and its
// first block in the Frozen state.
func frozenBlockSpilled(t *testing.T, mode transform.Mode, rows int64) (*catalog.Table, *storage.Block) {
	t.Helper()
	reg := storage.NewRegistry()
	m := txn.NewManager(reg)
	table, err := catalog.New(reg).CreateTable("tier-test", arrow.NewSchema(
		arrow.Field{Name: "id", Type: arrow.INT64},
		arrow.Field{Name: "v", Type: arrow.STRING, Nullable: true},
	))
	if err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	row := table.AllColumnsProjection().NewRow()
	for id := int64(0); id < rows; id++ {
		row.Reset()
		row.SetInt64(0, id)
		if id%9 == 0 {
			row.SetNull(1)
		} else {
			row.SetVarlen(1, []byte(spilledPayload(id)))
		}
		if _, err := table.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
	}
	m.Commit(tx, nil)

	g := gc.New(m)
	for i := 0; i < 3; i++ {
		g.RunOnce()
	}
	blk := table.Blocks()[0]
	blk.SetInsertHead(blk.Layout.NumSlots)
	for i := 0; i < 3; i++ {
		g.RunOnce()
	}
	if blk.HasActiveVersions() {
		t.Fatal("fixture block still has versions")
	}
	blk.SetState(storage.StateFreezing)
	if err := transform.GatherBlock(blk, mode, nil); err != nil {
		t.Fatal(err)
	}
	if blk.State() != storage.StateFrozen {
		t.Fatalf("fixture state %v", blk.State())
	}
	return table, blk
}

func spilledPayload(id int64) string {
	return fmt.Sprintf("pay-%s-tail", strings.Repeat("v", int(id%7)))
}

func checkSpilledValues(t *testing.T, tag string, b *storage.Block, rows int64) {
	t.Helper()
	for id := int64(0); id < rows; id++ {
		if id%9 == 0 {
			if b.IsValid(1, uint32(id)) {
				t.Fatalf("%s: row %d should be null", tag, id)
			}
			continue
		}
		got := b.ReadVarlen(1, uint32(id))
		if want := spilledPayload(id); string(got) != want {
			t.Fatalf("%s: row %d = %q, want %q", tag, id, got, want)
		}
	}
}

// TestRefreezeAfterRethaw is the regression test for the gather self-read
// bug: re-freezing a block whose entries are frozen handles (it was
// frozen, evicted, re-thawed, and thawed for a write) must not resolve
// those entries through the replacement buffer gather is still filling.
// The cycle runs twice per mode: freeze -> evict -> rethaw -> thaw ->
// re-freeze -> evict, verifying values in RAM and through the store
// round-trip each time.
func TestRefreezeAfterRethaw(t *testing.T) {
	const rows = 50
	for _, mode := range []transform.Mode{transform.ModeGather, transform.ModeDictionary} {
		table, b := frozenBlockSpilled(t, mode, rows)
		store, err := objstore.NewFSStore(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		m := tier.NewManager(store, -1, 1, nil)

		for cycle := 0; cycle < 2; cycle++ {
			tag := fmt.Sprintf("mode %v cycle %d", mode, cycle)
			ok, err := m.EvictBlock(b, table.FrozenBatch)
			if err != nil || !ok {
				t.Fatalf("%s: evict = %v, %v", tag, ok, err)
			}
			rb, err := m.Fetch(b)
			if err != nil {
				t.Fatalf("%s: fetch: %v", tag, err)
			}
			if rb.NumRows != rows {
				t.Fatalf("%s: cold rows %d", tag, rb.NumRows)
			}

			if !b.CASResidency(storage.ResidencyEvicted, storage.ResidencyRethawing) {
				t.Fatalf("%s: claim rethaw", tag)
			}
			if err := m.Rethaw(b); err != nil {
				t.Fatalf("%s: rethaw: %v", tag, err)
			}
			b.SetResidency(storage.ResidencyResident)
			checkSpilledValues(t, tag+" after rethaw", b, rows)

			// Thaw like a writer would, then re-freeze: the entries going
			// into this gather are frozen handles from the cold epoch.
			if !b.MarkHotResident() {
				t.Fatalf("%s: thaw failed", tag)
			}
			b.SetState(storage.StateFreezing)
			if err := transform.GatherBlock(b, mode, nil); err != nil {
				t.Fatalf("%s: refreeze: %v", tag, err)
			}
			checkSpilledValues(t, tag+" after refreeze", b, rows)

			// The refrozen content is identical, so the next eviction must
			// re-derive the same content-addressed key.
			wantValues := rb.Columns[1].Values
			if mode == transform.ModeDictionary {
				wantValues = rb.Columns[1].Dict.Values
			}
			gotFV := b.FrozenVarlenCol(1)
			if gotFV == nil || !bytes.Equal(gotFV.Values, wantValues) {
				t.Fatalf("%s: refrozen values buffer diverged from cold epoch", tag)
			}
		}
	}
}
