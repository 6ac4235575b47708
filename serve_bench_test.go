package mainline_test

// Serving-layer benchmarks live in an external test package: the server
// package imports mainline, so importing it from an in-package test would
// be an import cycle.

import (
	"fmt"
	"testing"

	"mainline"
	"mainline/client"
	"mainline/internal/server"
)

func loadFrozenTable(b *testing.B, eng *mainline.Engine, rows int) *mainline.Table {
	b.Helper()
	tbl, err := eng.CreateTable("t", mainline.NewSchema(
		mainline.Field{Name: "id", Type: mainline.INT64},
		mainline.Field{Name: "payload", Type: mainline.STRING},
	))
	if err != nil {
		b.Fatal(err)
	}
	tx, err := eng.Begin()
	if err != nil {
		b.Fatal(err)
	}
	row := tbl.NewRow()
	for i := 0; i < rows; i++ {
		row.Reset()
		row.SetInt64(0, int64(i))
		row.SetVarlen(1, []byte(fmt.Sprintf("payload-%d-abcdefghijklmnop", i)))
		if _, err := tbl.Insert(tx, row); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	if !eng.FreezeAll(100) {
		b.Fatal("freeze failed")
	}
	return tbl
}

// BenchmarkServeDoGet measures the serving layer's streaming export path
// (framed protocol + admission + deadline machinery) on one long-lived
// client connection over a frozen table. The transport comparison is
// BenchmarkExportProtocols in internal/bench.
func BenchmarkServeDoGet(b *testing.B) {
	eng, err := mainline.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	loadFrozenTable(b, eng, 50000)
	srv := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Listen()
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		st, err := c.DoGet("t", nil, nil, func(rb *mainline.RecordBatch) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		bytes += st.Bytes
	}
	b.SetBytes(bytes / int64(b.N))
}
