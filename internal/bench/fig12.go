package bench

import (
	"fmt"
	"time"

	"mainline/internal/arrow"
	"mainline/internal/benchutil"
	"mainline/internal/storage"
	"mainline/internal/transform"
)

// Fig12Point is one measurement of one transformation algorithm.
type Fig12Point struct {
	EmptyPct     int
	Algorithm    string
	BlocksPerSec float64
	// Phase breakdown (Figure 12b), zero when not applicable.
	CompactionSec float64
	GatherSec     float64
}

// Fig12Result carries the series plus the printable table.
type Fig12Result struct {
	Points []Fig12Point
	Table  *benchutil.Table
}

// DefaultEmptyPcts are the x-axis values of Figures 12-14.
var DefaultEmptyPcts = []int{0, 1, 5, 10, 20, 40, 60, 80}

// Fig12 reproduces the transformation-throughput microbenchmark
// (Figure 12): four algorithms migrating nBlocks blocks from the relaxed to
// the canonical format while the fraction of empty slots varies.
//
//	Hybrid-Gather   two-phase: transactional compaction + in-place gather
//	Snapshot        copy every block's visible tuples into fresh Arrow
//	In-Place        rewrite every tuple transactionally (version overhead)
//	Hybrid-Compress two-phase with dictionary compression
func Fig12(variant LayoutVariant, nBlocks, perBlock int, emptyPcts []int) (*Fig12Result, error) {
	if emptyPcts == nil {
		emptyPcts = DefaultEmptyPcts
	}
	res := &Fig12Result{Table: &benchutil.Table{
		Title:  fmt.Sprintf("Figure 12 — Transformation throughput (%s columns, %d blocks)", variant, nBlocks),
		Note:   "blocks/s higher is better; breakdown columns give per-phase seconds",
		Header: []string{"%empty", "Hybrid-Gather", "Snapshot", "In-Place", "Hybrid-Compress", "compact(s)", "gather(s)", "dict(s)"},
	}}
	for _, pct := range emptyPcts {
		frac := float64(pct) / 100
		gatherRate, cSec, gSec, err := runHybrid(variant, nBlocks, perBlock, frac, transform.ModeGather)
		if err != nil {
			return nil, fmt.Errorf("hybrid-gather @%d%%: %w", pct, err)
		}
		snapRate, err := runSnapshot(variant, nBlocks, perBlock, frac)
		if err != nil {
			return nil, fmt.Errorf("snapshot @%d%%: %w", pct, err)
		}
		inplaceRate, err := runInPlace(variant, nBlocks, perBlock, frac)
		if err != nil {
			return nil, fmt.Errorf("in-place @%d%%: %w", pct, err)
		}
		compressRate, _, dSec, err := runHybrid(variant, nBlocks, perBlock, frac, transform.ModeDictionary)
		if err != nil {
			return nil, fmt.Errorf("hybrid-compress @%d%%: %w", pct, err)
		}
		res.Points = append(res.Points,
			Fig12Point{pct, "hybrid-gather", gatherRate, cSec, gSec},
			Fig12Point{pct, "snapshot", snapRate, 0, 0},
			Fig12Point{pct, "in-place", inplaceRate, 0, 0},
			Fig12Point{pct, "hybrid-compress", compressRate, cSec, dSec},
		)
		res.Table.AddRow(
			fmt.Sprintf("%d", pct),
			fmt.Sprintf("%.1f blk/s", gatherRate),
			fmt.Sprintf("%.1f blk/s", snapRate),
			fmt.Sprintf("%.1f blk/s", inplaceRate),
			fmt.Sprintf("%.1f blk/s", compressRate),
			fmt.Sprintf("%.4f", cSec),
			fmt.Sprintf("%.4f", gSec),
			fmt.Sprintf("%.4f", dSec),
		)
	}
	return res, nil
}

// runHybrid times the two-phase algorithm and returns blocks/s plus the
// phase breakdown.
func runHybrid(variant LayoutVariant, nBlocks, perBlock int, frac float64, mode transform.Mode) (rate, compactSec, gatherSec float64, err error) {
	bs, err := buildBlockSet(variant, nBlocks, perBlock, frac, 42)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	if _, err := bs.compactAll(false); err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	if _, err := bs.freezeSurvivors(mode); err != nil {
		return 0, 0, 0, err
	}
	t2 := time.Now()
	total := t2.Sub(t0).Seconds()
	return float64(nBlocks) / total, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), nil
}

// runSnapshot times the copy-everything baseline: read a snapshot of each
// (hot) block and rebuild it as a fresh Arrow batch — the export
// producer's materialization path.
func runSnapshot(variant LayoutVariant, nBlocks, perBlock int, frac float64) (float64, error) {
	bs, err := buildBlockSet(variant, nBlocks, perBlock, frac, 42)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	tx := bs.mgr.Begin()
	_, _, err = bs.table.StreamBatches(tx, func(rb *arrow.RecordBatch, _ bool) error {
		_ = arrow.Checksum(rb)
		return nil
	})
	bs.mgr.Commit(tx, nil)
	if err != nil {
		return 0, err
	}
	return float64(nBlocks) / time.Since(t0).Seconds(), nil
}

// runInPlace times the all-transactional baseline: every tuple's payload
// column is rewritten through the version-chain machinery.
func runInPlace(variant LayoutVariant, nBlocks, perBlock int, frac float64) (float64, error) {
	bs, err := buildBlockSet(variant, nBlocks, perBlock, frac, 42)
	if err != nil {
		return 0, err
	}
	layout := bs.table.Layout()
	// Pick the column to rewrite: the varlen one when present.
	col := storage.ColumnID(0)
	for c := 0; c < layout.NumColumns(); c++ {
		if layout.IsVarlen(storage.ColumnID(c)) {
			col = storage.ColumnID(c)
			break
		}
	}
	proj := storage.MustProjection(layout, []storage.ColumnID{col})
	t0 := time.Now()
	for _, b := range bs.blocks {
		tx := bs.mgr.Begin()
		cur := proj.NewRow()
		upd := proj.NewRow()
		head := b.InsertHead()
		for s := uint32(0); s < head; s++ {
			if !b.Allocated(s) {
				continue
			}
			slot := storage.NewTupleSlot(b.ID, s)
			found, err := bs.table.Select(tx, slot, cur)
			if err != nil || !found {
				continue
			}
			upd.CopyFrom(cur)
			if err := bs.table.Update(tx, slot, upd); err != nil {
				bs.mgr.Abort(tx)
				return 0, err
			}
		}
		bs.mgr.Commit(tx, nil)
	}
	elapsed := time.Since(t0).Seconds()
	return float64(nBlocks) / elapsed, nil
}

// Fig13 reproduces the write-amplification comparison (Figure 13): tuples
// moved by the snapshot baseline (every tuple) versus the approximate and
// optimal compaction plans, as emptiness varies.
func Fig13(variant LayoutVariant, nBlocks, perBlock int, emptyPcts []int) (*benchutil.Table, error) {
	if emptyPcts == nil {
		emptyPcts = []int{1, 5, 10, 20, 40, 60, 80}
	}
	t := &benchutil.Table{
		Title:  fmt.Sprintf("Figure 13 — Write amplification: tuples moved (%d blocks)", nBlocks),
		Note:   "snapshot always moves every live tuple; the planners move only gap-fillers",
		Header: []string{"%empty", "snapshot", "approximate", "optimal", "approx bound ok"},
	}
	for _, pct := range emptyPcts {
		bs, err := buildBlockSet(variant, nBlocks, perBlock, float64(pct)/100, 42)
		if err != nil {
			return nil, err
		}
		approx := transform.PlanCompaction(bs.blocks, false)
		optimal := transform.PlanCompaction(bs.blocks, true)
		snapshot := bs.tuples
		rem := approx.TotalTuples % approx.SlotsPerBlock
		bound := approx.Movements <= optimal.Movements+rem
		t.AddRow(
			fmt.Sprintf("%d", pct),
			benchutil.Count(int64(snapshot)),
			benchutil.Count(int64(approx.Movements)),
			benchutil.Count(int64(optimal.Movements)),
			fmt.Sprintf("%v", bound),
		)
		if !bound {
			return t, fmt.Errorf("approximate plan exceeded bound at %d%%", pct)
		}
	}
	return t, nil
}

// Fig14 reproduces the compaction-group-size sensitivity study (Figure 14):
// blocks freed and transaction write-set size versus group size.
func Fig14(variant LayoutVariant, nBlocks, perBlock int, groupSizes, emptyPcts []int) (*benchutil.Table, error) {
	if groupSizes == nil {
		groupSizes = []int{1, 10, 50, 100, 250, 500}
	}
	if emptyPcts == nil {
		emptyPcts = []int{1, 5, 10, 20, 40, 60, 80}
	}
	t := &benchutil.Table{
		Title:  fmt.Sprintf("Figure 14 — Compaction group size sensitivity (%d blocks)", nBlocks),
		Header: []string{"%empty", "group", "blocks freed", "max write-set (ops)"},
	}
	for _, pct := range emptyPcts {
		for _, g := range groupSizes {
			if g > nBlocks {
				continue
			}
			bs, err := buildBlockSet(variant, nBlocks, perBlock, float64(pct)/100, 42)
			if err != nil {
				return nil, err
			}
			freed := 0
			maxWS := 0
			for start := 0; start < len(bs.blocks); start += g {
				end := start + g
				if end > len(bs.blocks) {
					end = len(bs.blocks)
				}
				res, err := transform.CompactGroup(bs.mgr, bs.table.DataTable, bs.blocks[start:end], false)
				if err != nil {
					return nil, err
				}
				freed += len(res.EmptiedBlocks)
				if res.WriteSetSize > maxWS {
					maxWS = res.WriteSetSize
				}
			}
			t.AddRow(
				fmt.Sprintf("%d", pct),
				fmt.Sprintf("%d", g),
				fmt.Sprintf("%d", freed),
				benchutil.Count(int64(maxWS)),
			)
		}
	}
	return t, nil
}
