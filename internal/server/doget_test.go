package server

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"mainline"
	"mainline/internal/arrow"
	"mainline/internal/storage"
	"mainline/internal/transform"
)

// mixedExportTable builds a quiescent table of three blocks with NULLs in
// each: one frozen by a plain gather, one frozen with dictionary
// compression, and one left hot.
func mixedExportTable(t *testing.T, eng *mainline.Engine) *mainline.Table {
	t.Helper()
	tbl, err := eng.CreateTable("mixed", itemSchema())
	if err != nil {
		t.Fatal(err)
	}
	blocks := func() []*storage.Block { return eng.Admin().Catalog().Table("mixed").Blocks() }
	id := 0
	for seg := 0; seg < 3; seg++ {
		if err := eng.Update(func(tx *mainline.Txn) error {
			row := tbl.NewRow()
			for i := 0; i < 300; i++ {
				row.Reset()
				row.SetInt64(0, int64(id))
				if id%5 == 2 {
					row.SetNull(1)
				} else {
					row.SetVarlen(1, []byte(fmt.Sprintf("name-%d", id%17)))
				}
				row.SetInt32(2, int32(id%100))
				if id%9 == 4 {
					row.SetNull(3)
				} else {
					row.SetFloat64(3, float64(id)/4)
				}
				if _, err := tbl.Insert(tx, row); err != nil {
					return err
				}
				id++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Seal the segment's block so the next segment starts a new one.
		bs := blocks()
		last := bs[len(bs)-1]
		last.SetInsertHead(last.Layout.NumSlots)
	}
	for i := 0; i < 3; i++ {
		eng.RunGC()
	}
	bs := blocks()
	if len(bs) != 3 {
		t.Fatalf("%d blocks, want 3", len(bs))
	}
	for i, mode := range []transform.Mode{transform.ModeGather, transform.ModeDictionary} {
		b := bs[i]
		if b.HasActiveVersions() {
			t.Fatal("version chains not pruned; cannot freeze")
		}
		b.SetState(storage.StateFreezing)
		if err := transform.GatherBlock(b, mode); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// rawDoGet issues an unfiltered DoGet on a raw connection and returns the
// concatenated dataChunk payloads: the IPC stream exactly as sent.
func rawDoGet(t *testing.T, addr, table string) []byte {
	t.Helper()
	conn := rawConn(t, addr)
	var w wbuf
	w.u32(0) // no deadline
	w.str(table)
	if err := w.strs(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.pred(nil); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, reqDoGet, w.b); err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for {
		kind, payload, err := readFrame(conn, DefaultMaxFrame, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case dataChunk:
			stream = append(stream, payload...)
		case dataEnd:
			return stream
		default:
			t.Fatalf("unexpected %s frame in DoGet stream", kindName(kind))
		}
	}
}

// TestDoGetMatchesExportIPC pins the single stream format: an unfiltered
// DoGet sends byte for byte what Table.ExportIPC writes for the same
// quiescent table, across plain-frozen, dictionary and hot blocks.
func TestDoGetMatchesExportIPC(t *testing.T) {
	eng, _, addr := startServer(t, Config{})
	tbl := mixedExportTable(t, eng)

	var want bytes.Buffer
	var frozen, materialized int
	if err := eng.View(func(tx *mainline.Txn) (err error) {
		_, frozen, materialized, err = tbl.ExportIPC(&want, tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if frozen != 2 || materialized != 1 {
		t.Fatalf("export took %d frozen / %d materialized blocks, want 2 / 1", frozen, materialized)
	}
	// The stream really mixes what it claims to: a dictionary column and
	// NULLs.
	var dict, nulls bool
	rd := arrow.NewReader(bytes.NewReader(want.Bytes()))
	for {
		rb, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rb.Columns {
			dict = dict || c.Type == arrow.DICT32
			nulls = nulls || c.NullCount > 0
		}
	}
	if !dict || !nulls {
		t.Fatalf("stream has dictionary column %v, NULLs %v; want both", dict, nulls)
	}

	got := rawDoGet(t, addr, "mixed")
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("DoGet sent %d bytes that differ from ExportIPC's %d", len(got), want.Len())
	}
}
