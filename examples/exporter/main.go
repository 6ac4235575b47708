// Exporter: the zero-copy export path end to end in one process. It loads
// and freezes a table, serves it with the mainline-serve serving layer on
// a loopback port, pulls it back with a streaming DoGet, and checks what
// arrived against an in-process export of the same snapshot. Frozen
// blocks leave the server as their own column buffers (paper §5); the
// transport comparison of Figure 15 is `mainline-bench fig15`.
package main

import (
	"fmt"
	"log"
	"time"

	"mainline"
	"mainline/client"
	"mainline/internal/arrow"
	"mainline/internal/server"
)

func main() {
	eng, err := mainline.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	lines, err := eng.CreateTable("order_line", mainline.NewSchema(
		mainline.Field{Name: "ol_o_id", Type: mainline.INT64},
		mainline.Field{Name: "ol_amount", Type: mainline.INT64},
		mainline.Field{Name: "ol_dist_info", Type: mainline.STRING},
	))
	if err != nil {
		log.Fatal(err)
	}
	const rows = 100000
	if err := eng.Update(func(tx *mainline.Txn) error {
		row := lines.NewRow()
		for i := 0; i < rows; i++ {
			row.Reset()
			row.SetInt64(0, int64(i/10))
			row.SetInt64(1, int64(i%10000))
			row.SetVarlen(2, []byte(fmt.Sprintf("dist-info-%024d", i)))
			if _, err := lines.Insert(tx, row); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	if !eng.FreezeAll(0) {
		log.Fatal("freeze did not converge")
	}

	// The reference: the same table exported in process.
	var wantSum int64
	var wantChecksum uint64
	if err := eng.View(func(tx *mainline.Txn) error {
		_, _, err := lines.ExportBatches(tx, func(rb *mainline.RecordBatch, _ bool) error {
			s, _ := arrow.SumInt64(rb.Column("ol_amount"))
			wantSum += s
			wantChecksum ^= arrow.Checksum(rb)
			return nil
		})
		return err
	}); err != nil {
		log.Fatal(err)
	}

	srv := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Listen()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("serving table %q (%d rows, all frozen) on %s\n", "order_line", rows, addr)

	c, err := client.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	var sum int64
	var checksum uint64
	start := time.Now()
	st, err := c.DoGet("order_line", nil, nil, func(rb *mainline.RecordBatch) error {
		s, _ := arrow.SumInt64(rb.Column("ol_amount"))
		sum += s
		checksum ^= arrow.Checksum(rb)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if st.Rows != rows || sum != wantSum || checksum != wantChecksum {
		log.Fatalf("DoGet delivered different data: %d rows, sum %d (want %d), checksum %016x (want %016x)",
			st.Rows, sum, wantSum, checksum, wantChecksum)
	}
	if st.Frozen == 0 || st.Materialized != 0 {
		log.Fatalf("want every block zero-copy, got %d frozen / %d materialized", st.Frozen, st.Materialized)
	}
	fmt.Printf("DoGet: %d rows (%d frozen / %d materialized blocks), %d bytes in %v (%.1f MB/s)\n",
		st.Rows, st.Frozen, st.Materialized, st.Bytes, elapsed.Round(time.Microsecond),
		float64(st.Bytes)/(1<<20)/elapsed.Seconds())
	fmt.Printf("matches the in-process export: sum=%d checksum %016x\n", sum, checksum)
}
