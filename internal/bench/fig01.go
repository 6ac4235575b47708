package bench

import (
	"fmt"
	"os"
	"time"

	"mainline/internal/arrow"
	"mainline/internal/benchutil"
	"mainline/internal/catalog"
	"mainline/internal/gc"
	"mainline/internal/server"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
	"mainline/internal/workload/tpch"
)

// Fig1 reproduces the data-transformation-cost motivation experiment
// (Figure 1): loading TPC-H LINEITEM into an analytical client via
//
//	In-Memory   the engine's frozen Arrow blocks handed over zero-copy
//	CSV         dump to a CSV file, then parse it back into columns
//	Wire (SQL)  fetch through the row-oriented text protocol (the
//	            ODBC/PostgreSQL stand-in)
//
// The paper's absolute gap (8 s vs 284 s vs 1380 s at SF 10) tracks the
// serialization work per value; the ordering and orders-of-magnitude shape
// are scale-independent.
func Fig1(rows int) (*benchutil.Table, error) {
	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	cat := catalog.New(reg)
	table, err := tpch.Load(mgr, cat, "lineitem", rows, 2000, 7)
	if err != nil {
		return nil, err
	}
	// Freeze so the in-memory path is the zero-copy one.
	g := gc.New(mgr)
	obs := transform.NewObserver()
	obs.Watch(table.DataTable)
	g.SetObserver(obs)
	cfg := transform.DefaultConfig()
	tr := transform.New(mgr, g, obs, cfg)
	for i := 0; i < 20; i++ {
		g.RunOnce()
		tr.ForcePass()
	}

	t := &benchutil.Table{
		Title:  fmt.Sprintf("Figure 1 — Data transformation cost, LINEITEM %d rows", rows),
		Note:   "time to make the table usable by an analytical client",
		Header: []string{"method", "time", "vs in-memory"},
	}

	// (1) In-memory Arrow hand-off.
	t0 := time.Now()
	tx := mgr.Begin()
	var checksum uint64
	_, _, err = table.StreamBatches(tx, func(rb *arrow.RecordBatch, _ bool) error {
		checksum ^= arrow.Checksum(rb)
		return nil
	})
	mgr.Commit(tx, nil)
	if err != nil {
		return nil, err
	}
	inMem := time.Since(t0)
	_ = checksum

	// (2) CSV export + load.
	t0 = time.Now()
	f, err := os.CreateTemp("", "lineitem-*.csv")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	cw, err := arrow.NewCSVWriter(f, table.Schema)
	if err != nil {
		return nil, err
	}
	tx = mgr.Begin()
	_, _, err = table.StreamBatches(tx, func(rb *arrow.RecordBatch, _ bool) error { return cw.Write(rb) })
	mgr.Commit(tx, nil)
	if err == nil {
		err = cw.Flush()
	}
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	csvExport := time.Since(t0)
	t0 = time.Now()
	rf, err := os.Open(f.Name())
	if err != nil {
		return nil, err
	}
	loaded, err := arrow.ReadCSV(rf, tpch.LineItemSchema(), 1<<16)
	rf.Close()
	if err != nil {
		return nil, err
	}
	if loaded.NumRows() != rows {
		return nil, fmt.Errorf("fig1: CSV round-trip lost rows: %d", loaded.NumRows())
	}
	csvLoad := time.Since(t0)
	csvTotal := csvExport + csvLoad

	// (3) Row-oriented wire protocol.
	srv := server.NewCompareServer(mgr, cat)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	t0 = time.Now()
	res, err := server.Fetch(addr, server.ProtoPGWire, "lineitem")
	if err != nil {
		return nil, err
	}
	if res.Table.NumRows() != rows {
		return nil, fmt.Errorf("fig1: wire fetch lost rows: %d", res.Table.NumRows())
	}
	wire := time.Since(t0)

	t.AddRow("In-Memory (Arrow)", benchutil.Seconds(inMem), "1.0x")
	t.AddRow("CSV export+load", benchutil.Seconds(csvTotal), benchutil.Ratio(csvTotal.Seconds(), inMem.Seconds()))
	t.AddRow("  of which export", benchutil.Seconds(csvExport), "")
	t.AddRow("  of which load", benchutil.Seconds(csvLoad), "")
	t.AddRow("SQL wire (pgwire)", benchutil.Seconds(wire), benchutil.Ratio(wire.Seconds(), inMem.Seconds()))
	return t, nil
}
