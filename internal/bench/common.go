// Package bench implements the reproduction harness for every figure in
// the paper's evaluation (§6). Each FigNN function builds its experiment at
// a configurable scale, runs it, and returns a benchutil.Table whose rows
// correspond to the figure's series. cmd/mainline-bench prints them; the
// repository-root benchmarks run them under testing.B at reduced scale.
package bench

import (
	"fmt"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/gc"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
	"mainline/internal/util"
)

// LayoutVariant selects the microbenchmark table shape (Figure 12 a/c/d).
type LayoutVariant int

// Variants.
const (
	// VariantMixed is one 8-byte column plus one varlen column — the
	// paper's "50% variable-length columns" default.
	VariantMixed LayoutVariant = iota
	// VariantFixed is two 8-byte columns (Figure 12c).
	VariantFixed
	// VariantVarlen is two varlen columns (Figure 12d).
	VariantVarlen
)

// String names the variant.
func (v LayoutVariant) String() string {
	switch v {
	case VariantFixed:
		return "fixed"
	case VariantVarlen:
		return "varlen"
	default:
		return "mixed"
	}
}

func (v LayoutVariant) schema() *arrow.Schema {
	switch v {
	case VariantFixed:
		return arrow.NewSchema(
			arrow.Field{Name: "a", Type: arrow.INT64},
			arrow.Field{Name: "b", Type: arrow.INT64},
		)
	case VariantVarlen:
		return arrow.NewSchema(
			arrow.Field{Name: "a", Type: arrow.STRING},
			arrow.Field{Name: "b", Type: arrow.STRING},
		)
	default:
		return arrow.NewSchema(
			arrow.Field{Name: "a", Type: arrow.INT64},
			arrow.Field{Name: "b", Type: arrow.STRING},
		)
	}
}

// blockSet is a fabricated multi-block table with a controlled emptiness,
// the input shape of the transformation microbenchmarks (§6.2): an initial
// transaction populates the table and deletions simulate cold gaps.
type blockSet struct {
	mgr    *txn.Manager
	cat    *catalog.Catalog
	table  *catalog.Table
	blocks []*storage.Block
	// tuples is the live tuple count after deletions.
	tuples int
}

// buildBlockSet creates nBlocks blocks each populated with perBlock tuples
// (0 = full capacity) and then deletes emptyFrac of them at random. Chains
// are GC-pruned so the set is cold, exactly like data that "has become cold
// since the last transformation pass".
func buildBlockSet(variant LayoutVariant, nBlocks, perBlock int, emptyFrac float64, seed uint64) (*blockSet, error) {
	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	cat := catalog.New(reg)
	table, err := cat.CreateTable("micro", variant.schema())
	if err != nil {
		return nil, err
	}
	bs := &blockSet{mgr: mgr, cat: cat, table: table}
	rng := util.NewRand(seed)
	layout := table.Layout()
	if perBlock <= 0 || perBlock > int(layout.NumSlots) {
		perBlock = int(layout.NumSlots)
	}
	row := table.AllColumnsProjection().NewRow()
	var slots []storage.TupleSlot
	val := make([]byte, 24)
	for b := 0; b < nBlocks; b++ {
		tx := mgr.Begin()
		var blk *storage.Block
		for i := 0; i < perBlock; i++ {
			row.Reset()
			fillMicroRow(row, variant, rng, val)
			slot, err := table.Insert(tx, row)
			if err != nil {
				mgr.Abort(tx)
				return nil, err
			}
			if blk == nil {
				blk = reg.BlockFor(slot)
			}
			slots = append(slots, slot)
		}
		mgr.Commit(tx, nil)
		// Force the next batch into a fresh block.
		blk.SetInsertHead(layout.NumSlots)
		bs.blocks = append(bs.blocks, blk)
	}
	// Random deletions to the target emptiness.
	toDelete := int(float64(len(slots)) * emptyFrac)
	perm := rng.Perm(len(slots))
	tx := mgr.Begin()
	for i := 0; i < toDelete; i++ {
		if err := table.Delete(tx, slots[perm[i]]); err != nil {
			mgr.Abort(tx)
			return nil, err
		}
	}
	mgr.Commit(tx, nil)
	bs.tuples = len(slots) - toDelete
	bs.prune()
	return bs, nil
}

func fillMicroRow(row *storage.ProjectedRow, variant LayoutVariant, rng *util.Rand, scratch []byte) {
	switch variant {
	case VariantFixed:
		row.SetInt64(0, int64(rng.Uint64()))
		row.SetInt64(1, int64(rng.Uint64()))
	case VariantVarlen:
		n1 := rng.IntRange(12, 24)
		rng.Bytes(scratch[:n1])
		row.SetVarlen(0, append([]byte(nil), scratch[:n1]...))
		n2 := rng.IntRange(12, 24)
		rng.Bytes(scratch[:n2])
		row.SetVarlen(1, append([]byte(nil), scratch[:n2]...))
	default:
		row.SetInt64(0, int64(rng.Uint64()))
		n := rng.IntRange(12, 24)
		rng.Bytes(scratch[:n])
		row.SetVarlen(1, append([]byte(nil), scratch[:n]...))
	}
}

// prune runs the GC until version chains are gone.
func (bs *blockSet) prune() {
	g := gc.New(bs.mgr)
	for i := 0; i < 3; i++ {
		g.RunOnce()
	}
}

// compactAll runs Phase 1 over all blocks as one group and returns the
// result.
func (bs *blockSet) compactAll(optimal bool) (*transform.CompactionResult, error) {
	return transform.CompactGroup(bs.mgr, bs.table.DataTable, bs.blocks, optimal)
}

// freezeSurvivors GC-prunes and gathers every cooling block.
func (bs *blockSet) freezeSurvivors(mode transform.Mode) (int, error) {
	bs.prune()
	frozen := 0
	for _, b := range bs.blocks {
		if b.State() != storage.StateCooling {
			continue
		}
		if b.HasActiveVersions() {
			return frozen, fmt.Errorf("bench: versions linger after prune")
		}
		if !b.CASState(storage.StateCooling, storage.StateFreezing) {
			continue
		}
		if err := transform.GatherBlock(b, mode, nil); err != nil {
			return frozen, err
		}
		frozen++
	}
	return frozen, nil
}
