package bench

import (
	"fmt"
	"sort"

	"mainline"
	"mainline/internal/benchutil"
	"mainline/internal/storage"
	"mainline/internal/workload/tpch"
)

// Fig15 reproduces the data-export experiment (Figure 15): export speed of
// an ORDER_LINE-shaped table (we use LINEITEM, the same wide mixed layout)
// to an analytical client under the four mechanisms, while the fraction of
// frozen blocks varies. Hot blocks must be materialized transactionally
// before export, which is what erodes Flight's and RDMA's advantage as
// %frozen drops. The Flight column is the serving layer's DoGet, the path
// analytical clients of mainline-serve use.
func Fig15(rows int, frozenPcts []int) (*benchutil.Table, error) {
	if frozenPcts == nil {
		frozenPcts = []int{0, 1, 5, 10, 20, 40, 60, 80, 100}
	}
	t := &benchutil.Table{
		Title:  fmt.Sprintf("Figure 15 — Export speed vs %%frozen blocks (LINEITEM, %d rows)", rows),
		Note:   fmt.Sprintf("MB/s of payload delivered to the client (median of %d exports), higher is better", fig15Trials),
		Header: []string{"%frozen", "RDMA(sim)", "Flight", "Vectorized", "PGWire"},
	}
	for _, pct := range frozenPcts {
		cells, err := fig15Point(rows, pct)
		if err != nil {
			return nil, err
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// fig15Point measures every mechanism on a fresh LINEITEM with pct% of
// its blocks frozen.
func fig15Point(rows, pct int) ([]string, error) {
	eng, table, err := buildFig15Table(rows, pct)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	x, err := newExporter(eng)
	if err != nil {
		return nil, err
	}
	defer x.close()

	rdma := newRDMAClient(1 << 22)
	cell, err := medianMBps(func() (*fetched, error) { return rdmaExport(eng, table, rdma) })
	if err != nil {
		return nil, err
	}
	cells := []string{fmt.Sprintf("%d", pct), cell}
	for _, p := range []protocol{protoFlight, protoVectorized, protoPGWire} {
		cell, err := medianMBps(func() (*fetched, error) {
			res, err := x.fetch(p, "lineitem")
			if err == nil && res.tab.NumRows() != rows {
				err = fmt.Errorf("%d rows", res.tab.NumRows())
			}
			return res, err
		})
		if err != nil {
			return nil, fmt.Errorf("fig15 %s @%d%%: %w", p, pct, err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// fig15Trials is how many times each mechanism exports a point's table.
const fig15Trials = 3

// medianMBps runs export fig15Trials times and formats the bandwidth of
// the median trial, so one stall of a shared host cannot reorder the
// columns.
func medianMBps(export func() (*fetched, error)) (string, error) {
	trials := make([]*fetched, fig15Trials)
	for i := range trials {
		res, err := export()
		if err != nil {
			return "", err
		}
		trials[i] = res
	}
	sort.Slice(trials, func(i, j int) bool { return trials[i].elapsed < trials[j].elapsed })
	m := trials[len(trials)/2]
	return benchutil.MBps(m.bytes, m.elapsed), nil
}

// buildFig15Table loads LINEITEM, freezes everything, then thaws blocks
// until only frozenPct% remain frozen.
func buildFig15Table(rows, frozenPct int) (*mainline.Engine, *mainline.Table, error) {
	eng, err := mainline.Open()
	if err != nil {
		return nil, nil, err
	}
	table, err := tpch.Load(eng, "lineitem", rows, 2000, 11)
	if err == nil && !eng.FreezeAll(0) {
		err = fmt.Errorf("fig15: freeze did not converge")
	}
	if err != nil {
		eng.Close()
		return nil, nil, err
	}
	// Thaw from the back until the frozen fraction matches.
	blocks := eng.Admin().Catalog().Table("lineitem").Blocks()
	var frozen []*storage.Block
	for _, b := range blocks {
		if b.State() == storage.StateFrozen {
			frozen = append(frozen, b)
		}
	}
	want := len(frozen) * frozenPct / 100
	for i := len(frozen) - 1; i >= want; i-- {
		frozen[i].MarkHot()
	}
	return eng, table, nil
}
