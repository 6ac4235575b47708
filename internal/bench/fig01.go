package bench

import (
	"fmt"
	"os"
	"time"

	"mainline"
	"mainline/internal/arrow"
	"mainline/internal/benchutil"
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
	eng, err := mainline.Open()
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	table, err := tpch.Load(eng, "lineitem", rows, 2000, 7)
	if err != nil {
		return nil, err
	}
	// Freeze so the in-memory path is the zero-copy one.
	if !eng.FreezeAll(0) {
		return nil, fmt.Errorf("fig1: freeze did not converge")
	}
	export := func(fn func(rb *arrow.RecordBatch) error) error {
		return eng.View(func(tx *mainline.Txn) error {
			_, _, err := table.ExportBatches(tx, func(rb *arrow.RecordBatch, _ bool) error { return fn(rb) })
			return err
		})
	}

	t := &benchutil.Table{
		Title:  fmt.Sprintf("Figure 1 — Data transformation cost, LINEITEM %d rows", rows),
		Note:   "time to make the table usable by an analytical client",
		Header: []string{"method", "time", "vs in-memory"},
	}

	// (1) In-memory Arrow hand-off.
	t0 := time.Now()
	var checksum uint64
	if err := export(func(rb *arrow.RecordBatch) error {
		checksum ^= arrow.Checksum(rb)
		return nil
	}); err != nil {
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
	err = export(cw.Write)
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
	res, err := fetchOverLoopback(eng, "lineitem", servePGWire, fetchPGWire)
	if err != nil {
		return nil, err
	}
	if res.tab.NumRows() != rows {
		return nil, fmt.Errorf("fig1: wire fetch lost rows: %d", res.tab.NumRows())
	}
	wire := res.elapsed

	t.AddRow("In-Memory (Arrow)", benchutil.Seconds(inMem), "1.0x")
	t.AddRow("CSV export+load", benchutil.Seconds(csvTotal), benchutil.Ratio(csvTotal.Seconds(), inMem.Seconds()))
	t.AddRow("  of which export", benchutil.Seconds(csvExport), "")
	t.AddRow("  of which load", benchutil.Seconds(csvLoad), "")
	t.AddRow("SQL wire (pgwire)", benchutil.Seconds(wire), benchutil.Ratio(wire.Seconds(), inMem.Seconds()))
	return t, nil
}
