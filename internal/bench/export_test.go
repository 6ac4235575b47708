package bench

import (
	"errors"
	"fmt"
	"testing"

	"mainline"
	"mainline/internal/arrow"
	"mainline/internal/server"
)

var transports = []protocol{protoPGWire, protoVectorized, protoFlight}

// exportEnv is an engine holding the n-row "orders" table, served through
// every transport.
type exportEnv struct {
	eng *mainline.Engine
	tbl *mainline.Table
	x   *exporter
}

func newExportEnv(t testing.TB, n int, freeze bool) *exportEnv {
	t.Helper()
	eng, err := mainline.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	tbl, err := eng.CreateTable("orders", mainline.NewSchema(
		mainline.Field{Name: "id", Type: mainline.INT64},
		mainline.Field{Name: "name", Type: mainline.STRING, Nullable: true},
		mainline.Field{Name: "qty", Type: mainline.INT32},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := eng.Update(func(tx *mainline.Txn) error {
			row := tbl.NewRow()
			row.SetInt64(0, int64(i))
			if i%7 == 3 {
				row.SetNull(1)
			} else {
				row.SetVarlen(1, []byte(fmt.Sprintf("customer-%d-some-longer-name", i)))
			}
			row.SetInt32(2, int32(i%100))
			_, err := tbl.Insert(tx, row)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if freeze && !eng.FreezeAll(0) {
		t.Fatal("freeze did not converge")
	}
	x, err := newExporter(eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.close)
	return &exportEnv{eng: eng, tbl: tbl, x: x}
}

// firstSlot returns the slot of some visible tuple.
func (e *exportEnv) firstSlot(t *testing.T) mainline.TupleSlot {
	t.Helper()
	var slot mainline.TupleSlot
	if err := e.eng.View(func(tx *mainline.Txn) error {
		return e.tbl.Scan(tx, []string{"id"}, func(s mainline.TupleSlot, _ *mainline.Row) bool {
			slot = s
			return false
		})
	}); err != nil {
		t.Fatal(err)
	}
	return slot
}

// update sets one column of the tuple at slot.
func (e *exportEnv) update(t *testing.T, slot mainline.TupleSlot, col string, v int64) {
	t.Helper()
	if err := e.eng.Update(func(tx *mainline.Txn) error {
		row, err := e.tbl.NewRowFor(col)
		if err != nil {
			return err
		}
		if err := row.Set(col, v); err != nil {
			return err
		}
		return e.tbl.Update(tx, slot, row)
	}); err != nil {
		t.Fatal(err)
	}
}

func verifyTable(t *testing.T, tab *arrow.Table, n int) {
	t.Helper()
	if tab.NumRows() != n {
		t.Fatalf("rows = %d, want %d", tab.NumRows(), n)
	}
	seen := 0
	for _, rb := range tab.Batches {
		id := rb.Column("id")
		name := rb.Column("name")
		qty := rb.Column("qty")
		for i := 0; i < rb.NumRows; i++ {
			v := id.Int64(i)
			if qty.Int32(i) != int32(v%100) {
				t.Fatalf("row id=%d qty=%d", v, qty.Int32(i))
			}
			if v%7 == 3 {
				if !name.IsNull(i) {
					t.Fatalf("row %d: null lost (%q)", v, name.Str(i))
				}
			} else if name.Str(i) != fmt.Sprintf("customer-%d-some-longer-name", v) {
				t.Fatalf("row %d name %q", v, name.Str(i))
			}
			seen++
		}
	}
	if seen != n {
		t.Fatalf("verified %d rows", seen)
	}
}

func TestAllProtocolsFrozen(t *testing.T) {
	const n = 1000
	e := newExportEnv(t, n, true)
	for _, p := range transports {
		t.Run(p.String(), func(t *testing.T) {
			res, err := e.x.fetch(p, "orders")
			if err != nil {
				t.Fatal(err)
			}
			verifyTable(t, res.tab, n)
			if res.bytes == 0 || res.elapsed <= 0 {
				t.Fatalf("stats: %+v", res)
			}
		})
	}
}

func TestAllProtocolsHot(t *testing.T) {
	const n = 500
	e := newExportEnv(t, n, false) // never frozen: exercises the materialization path
	for _, p := range transports {
		res, err := e.x.fetch(p, "orders")
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		verifyTable(t, res.tab, n)
	}
}

func TestRDMAExport(t *testing.T) {
	const n = 800
	e := newExportEnv(t, n, true)
	res, err := rdmaExport(e.eng, e.tbl, newRDMAClient(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	verifyTable(t, res.tab, n)
	if res.bytes == 0 {
		t.Fatal("no bytes accounted")
	}
	// Mutating the engine afterwards must not corrupt the client's copy
	// (the region owns its bytes).
	e.update(t, e.firstSlot(t), "id", -12345)
	verifyTable(t, res.tab, n)
}

func TestUnknownTable(t *testing.T) {
	e := newExportEnv(t, 0, false)
	for _, p := range transports {
		if _, err := e.x.fetch(p, "missing"); err == nil {
			t.Fatalf("%s: fetch of missing table succeeded", p)
		}
	}
	if _, err := e.x.fetch(protoFlight, "missing"); !errors.Is(err, server.ErrUnknownTable) {
		t.Fatalf("flight: want ErrUnknownTable, got %v", err)
	}
}

func TestMixedFrozenHotExport(t *testing.T) {
	e := newExportEnv(t, 600, true)
	// Touch one block: it thaws, export must mix zero-copy and materialize.
	e.update(t, e.firstSlot(t), "qty", 42)

	res, err := e.x.fetch(protoFlight, "orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.tab.NumRows() != 600 {
		t.Fatalf("rows = %d", res.tab.NumRows())
	}
	// The updated tuple arrives with its new value.
	found := false
	for _, rb := range res.tab.Batches {
		id := rb.Column("id")
		qty := rb.Column("qty")
		for i := 0; i < rb.NumRows; i++ {
			if qty.Int32(i) == 42 && id.Int64(i)%100 != 42 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("hot update not visible in export")
	}
}

func TestProtocolOrderingOnColdData(t *testing.T) {
	// Sanity for Figure 15's shape at micro scale: flight moves at least
	// as fast as vectorized, which beats pgwire, on a fully frozen table.
	// (Timing-based: generous tolerance, skipped under -short.)
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	e := newExportEnv(t, 20000, true)
	timing := map[protocol]float64{}
	for _, p := range []protocol{protoFlight, protoVectorized, protoPGWire} {
		best := 1e18
		for trial := 0; trial < 3; trial++ {
			res, err := e.x.fetch(p, "orders")
			if err != nil {
				t.Fatal(err)
			}
			if sec := res.elapsed.Seconds(); sec < best {
				best = sec
			}
		}
		timing[p] = best
	}
	if timing[protoPGWire] < timing[protoFlight] {
		t.Logf("warning: pgwire (%v) beat flight (%v) at this scale", timing[protoPGWire], timing[protoFlight])
	}
}

// BenchmarkExportProtocols measures steady-state fetch bandwidth per
// transport on a frozen table (the Figure 15 100%-frozen points,
// isolated). Each fetch opens its own connection; Flight is a DoGet.
func BenchmarkExportProtocols(b *testing.B) {
	eng, err := mainline.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	tbl, err := eng.CreateTable("t", mainline.NewSchema(
		mainline.Field{Name: "id", Type: mainline.INT64},
		mainline.Field{Name: "payload", Type: mainline.STRING},
	))
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Update(func(tx *mainline.Txn) error {
		row := tbl.NewRow()
		for i := 0; i < 50000; i++ {
			row.Reset()
			row.SetInt64(0, int64(i))
			row.SetVarlen(1, []byte(fmt.Sprintf("payload-%d-abcdefghijklmnop", i)))
			if _, err := tbl.Insert(tx, row); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	if !eng.FreezeAll(100) {
		b.Fatal("freeze failed")
	}
	x, err := newExporter(eng)
	if err != nil {
		b.Fatal(err)
	}
	defer x.close()
	for _, p := range []protocol{protoFlight, protoVectorized, protoPGWire} {
		b.Run(p.String(), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				res, err := x.fetch(p, "t")
				if err != nil {
					b.Fatal(err)
				}
				bytes += res.bytes
			}
			b.SetBytes(bytes / int64(b.N))
		})
	}
}
