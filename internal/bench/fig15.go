package bench

import (
	"fmt"

	"mainline/internal/benchutil"
	"mainline/internal/catalog"
	"mainline/internal/gc"
	"mainline/internal/server"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
	"mainline/internal/workload/tpch"
)

// Fig15 reproduces the data-export experiment (Figure 15): export speed of
// an ORDER_LINE-shaped table (we use LINEITEM, the same wide mixed layout)
// to an analytical client under the four mechanisms, while the fraction of
// frozen blocks varies. Hot blocks must be materialized transactionally
// before export, which is what erodes Flight's and RDMA's advantage as
// %frozen drops.
func Fig15(rows int, frozenPcts []int) (*benchutil.Table, error) {
	if frozenPcts == nil {
		frozenPcts = []int{0, 1, 5, 10, 20, 40, 60, 80, 100}
	}
	t := &benchutil.Table{
		Title:  fmt.Sprintf("Figure 15 — Export speed vs %%frozen blocks (LINEITEM, %d rows)", rows),
		Note:   "MB/s of payload delivered to the client, higher is better",
		Header: []string{"%frozen", "RDMA(sim)", "Flight", "Vectorized", "PGWire"},
	}
	for _, pct := range frozenPcts {
		mgr, cat, table, err := buildFig15Table(rows, pct)
		if err != nil {
			return nil, err
		}
		srv := server.NewCompareServer(mgr, cat)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}

		cells := []string{fmt.Sprintf("%d", pct)}
		// RDMA (in-process, simulated NIC path).
		client := server.NewRDMAClient(1 << 22)
		res, err := server.RDMAExport(mgr, table, client)
		if err != nil {
			srv.Close()
			return nil, err
		}
		cells = append(cells, benchutil.MBps(res.Bytes, res.Elapsed))
		for _, proto := range []server.Protocol{server.ProtoFlight, server.ProtoVectorized, server.ProtoPGWire} {
			res, err := server.Fetch(addr, proto, "lineitem")
			if err != nil {
				srv.Close()
				return nil, fmt.Errorf("fig15 %s @%d%%: %w", proto, pct, err)
			}
			if res.Table.NumRows() != rows {
				srv.Close()
				return nil, fmt.Errorf("fig15 %s @%d%%: %d rows", proto, pct, res.Table.NumRows())
			}
			cells = append(cells, benchutil.MBps(res.Bytes, res.Elapsed))
		}
		srv.Close()
		t.AddRow(cells...)
	}
	return t, nil
}

// buildFig15Table loads LINEITEM, freezes everything, then thaws blocks
// until only frozenPct% remain frozen.
func buildFig15Table(rows, frozenPct int) (*txn.Manager, *catalog.Catalog, *catalog.Table, error) {
	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	cat := catalog.New(reg)
	table, err := tpch.Load(mgr, cat, "lineitem", rows, 2000, 11)
	if err != nil {
		return nil, nil, nil, err
	}
	g := gc.New(mgr)
	obs := transform.NewObserver()
	obs.Watch(table.DataTable)
	g.SetObserver(obs)
	tr := transform.New(mgr, g, obs, transform.DefaultConfig())
	for i := 0; i < 30; i++ {
		g.RunOnce()
		tr.ForcePass()
	}
	blocks := table.Blocks()
	var frozen []*storage.Block
	for _, b := range blocks {
		if b.State() == storage.StateFrozen {
			frozen = append(frozen, b)
		}
	}
	if len(frozen) == 0 {
		return nil, nil, nil, fmt.Errorf("fig15: nothing froze")
	}
	// Thaw from the back until the frozen fraction matches.
	want := len(frozen) * frozenPct / 100
	for i := len(frozen) - 1; i >= want; i-- {
		frozen[i].MarkHot()
	}
	return mgr, cat, table, nil
}
