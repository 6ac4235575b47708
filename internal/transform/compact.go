package transform

import (
	"fmt"
	"sort"

	"mainline/internal/core"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// blockOccupancy is the Phase-1 scan result for one block.
type blockOccupancy struct {
	block  *storage.Block
	filled []uint32 // allocated slot offsets, ascending
	empty  int      // empty slots counted against full capacity
}

// CompactionPlan describes which blocks become full (F), which block ends
// partially filled (p), and which end empty (E) — the paper's selection
// (§4.3 Phase 1).
type CompactionPlan struct {
	Full    []*storage.Block
	Partial *storage.Block // nil when t divides s
	Empty   []*storage.Block
	// Movements is the planned number of delete-insert pairs.
	Movements int
	// TotalTuples is t; SlotsPerBlock is s.
	TotalTuples   int
	SlotsPerBlock int
}

// scanOccupancy reads each block's allocation bitmap. Emptiness is measured
// against full block capacity: compaction's goal state fills blocks
// completely.
func scanOccupancy(blocks []*storage.Block) []blockOccupancy {
	occ := make([]blockOccupancy, len(blocks))
	for i, b := range blocks {
		o := blockOccupancy{block: b}
		b.IterateAllocated(func(slot uint32) bool {
			o.filled = append(o.filled, slot)
			return true
		})
		o.empty = int(b.Layout.NumSlots) - len(o.filled)
		occ[i] = o
	}
	return occ
}

// gapsIn counts unallocated slots among the first n slots of o.
func (o *blockOccupancy) gapsIn(n int) int {
	filled := 0
	for _, s := range o.filled {
		if int(s) < n {
			filled++
		}
	}
	return n - filled
}

// PlanCompaction selects F, p, and E. With optimal=false it uses the
// paper's approximate algorithm (sort by emptiness, take the ⌊t/s⌋ fullest
// as F, the next as p) which is within (t mod s) movements of optimal; with
// optimal=true it additionally tries every block as p and keeps the
// cheapest plan.
func PlanCompaction(blocks []*storage.Block, optimal bool) *CompactionPlan {
	occ := scanOccupancy(blocks)
	sort.SliceStable(occ, func(i, j int) bool { return occ[i].empty < occ[j].empty })

	t := 0
	for i := range occ {
		t += len(occ[i].filled)
	}
	if len(blocks) == 0 {
		return &CompactionPlan{}
	}
	s := int(blocks[0].Layout.NumSlots)
	nFull := t / s
	rem := t % s

	build := func(pIdx int) *CompactionPlan {
		plan := &CompactionPlan{TotalTuples: t, SlotsPerBlock: s}
		// F = the nFull fullest blocks, skipping the chosen p.
		taken := 0
		for i := range occ {
			if i == pIdx {
				continue
			}
			if taken < nFull {
				plan.Full = append(plan.Full, occ[i].block)
				plan.Movements += occ[i].empty
				taken++
			} else {
				plan.Empty = append(plan.Empty, occ[i].block)
			}
		}
		if pIdx >= 0 {
			plan.Partial = occ[pIdx].block
			plan.Movements += occ[pIdx].gapsIn(rem)
		}
		return plan
	}

	if rem == 0 {
		return build(-1)
	}
	if !optimal {
		// Approximate: p is the first block not taken into F — the
		// (nFull)-th fullest.
		return build(nFull)
	}
	var best *CompactionPlan
	for cand := 0; cand < len(occ); cand++ {
		p := build(cand)
		if best == nil || p.Movements < best.Movements {
			best = p
		}
	}
	return best
}

// CompactionResult reports what one executed compaction did.
type CompactionResult struct {
	Plan *CompactionPlan
	// Moved counts tuples physically relocated (each is a delete-insert
	// pair, the write amplification unit of Figure 13).
	Moved int
	// WriteSetSize is the compaction transaction's undo-record count
	// (Figure 14b).
	WriteSetSize int
	// EmptiedBlocks are blocks that finished with zero tuples and can be
	// recycled once the GC epoch passes.
	EmptiedBlocks []*storage.Block
}

// CompactGroup executes Phase 1 on a compaction group: one transaction
// shuffles tuples out of sparse blocks into the gaps of the chosen full
// blocks, leaving the group "logically contiguous". After the moves, every
// involved block's status is set to cooling *before* the transaction
// commits — the ordering that closes the check-and-miss race (Figure 9).
// Any write-write conflict with a user transaction aborts the compaction
// (the paper's failure case; user transactions win).
func CompactGroup(mgr *txn.Manager, table *core.DataTable, blocks []*storage.Block, optimal bool) (*CompactionResult, error) {
	plan := PlanCompaction(blocks, optimal)
	res := &CompactionResult{Plan: plan}
	if plan.TotalTuples == 0 {
		// Nothing lives here; all blocks are empty.
		res.EmptiedBlocks = plan.Empty
		return res, nil
	}

	tx := mgr.Begin()
	abort := func(err error) (*CompactionResult, error) {
		mgr.Abort(tx)
		return nil, err
	}

	// Collect target gaps: all gaps in F, and gaps within the first
	// (t mod s) slots of p.
	type gap struct {
		block *storage.Block
		slot  uint32
	}
	var gaps []gap
	for _, b := range plan.Full {
		n := b.Layout.NumSlots
		for s := uint32(0); s < n; s++ {
			if !b.Allocated(s) {
				gaps = append(gaps, gap{b, s})
			}
		}
	}
	rem := plan.TotalTuples % plan.SlotsPerBlock
	if plan.Partial != nil {
		for s := uint32(0); s < uint32(rem); s++ {
			if !plan.Partial.Allocated(s) {
				gaps = append(gaps, gap{plan.Partial, s})
			}
		}
	}

	// Collect source tuples: everything in E, and p's tuples at or beyond
	// slot (t mod s).
	type src struct {
		block *storage.Block
		slot  uint32
	}
	var sources []src
	for _, b := range plan.Empty {
		b.IterateAllocated(func(s uint32) bool {
			sources = append(sources, src{b, s})
			return true
		})
	}
	if plan.Partial != nil {
		plan.Partial.IterateAllocated(func(s uint32) bool {
			if int(s) >= rem {
				sources = append(sources, src{plan.Partial, s})
			}
			return true
		})
	}
	if len(gaps) != len(sources) {
		// The accounting identity |gaps| == |sources| holds for any valid
		// selection; a mismatch means a concurrent writer changed the
		// group mid-plan. Yield to the user transaction.
		return abort(fmt.Errorf("transform: group changed during planning (%d gaps, %d sources)", len(gaps), len(sources)))
	}

	proj := table.AllColumnsProjection()
	row := proj.NewRow()
	for i := range sources {
		from := storage.NewTupleSlot(sources[i].block.ID, sources[i].slot)
		to := storage.NewTupleSlot(gaps[i].block.ID, gaps[i].slot)
		row.Reset()
		found, err := table.Select(tx, from, row)
		if err != nil {
			return abort(err)
		}
		if !found {
			return abort(fmt.Errorf("transform: source tuple %v vanished", from))
		}
		// Delete-then-insert: InsertIntoSlot copies each varlen value
		// into the target block, so ownership transfers cleanly (§4.4
		// Memory Management). Until then row's spilled values alias the
		// source block's immutable buffers, which the delete leaves
		// untouched.
		if err := table.Delete(tx, from); err != nil {
			return abort(err)
		}
		if err := table.InsertIntoSlot(tx, to, row); err != nil {
			return abort(err)
		}
		res.Moved++
	}

	// Flag every surviving block cooling before committing: any transaction
	// that later modifies the block must overlap this compaction
	// transaction, so its versions remain detectable until the gather phase
	// re-checks (§4.3).
	for _, b := range plan.Full {
		b.CASState(storage.StateHot, storage.StateCooling)
	}
	if plan.Partial != nil {
		plan.Partial.CASState(storage.StateHot, storage.StateCooling)
	}

	res.WriteSetSize = tx.WriteSetSize()
	mgr.Commit(tx, nil)
	res.EmptiedBlocks = plan.Empty
	return res, nil
}
