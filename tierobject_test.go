package mainline

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"mainline/internal/arrow"
	"mainline/internal/objstore"
	"mainline/internal/storage"
	"mainline/internal/transform"
)

// renderBatch renders a batch's schema (names and types) and rows as
// comparable strings.
func renderBatch(rb *arrow.RecordBatch) (schema string, rows []string) {
	for _, f := range rb.Schema.Fields {
		schema += f.Name + ":" + f.Type.String() + " "
	}
	for r := 0; r < rb.NumRows; r++ {
		var line bytes.Buffer
		for _, col := range rb.Columns {
			switch {
			case col.IsNull(r):
				line.WriteString("NULL")
			case col.Type == arrow.INT64:
				line.WriteString(strconv.FormatInt(col.Int64(r), 10))
			case col.Type == arrow.FLOAT64:
				line.WriteString(strconv.FormatFloat(col.Float64(r), 'g', -1, 64))
			default:
				fmt.Fprintf(&line, "%q", col.Bytes(r))
			}
			line.WriteByte('|')
		}
		rows = append(rows, line.String())
	}
	return schema, rows
}

// TestEvictedObjectIsPlainArrow pins the cold tier's format: the object
// an evicted block is stored as is a standalone Arrow IPC stream that
// arrow.ReadTable reads on its own, carrying the same schema (the
// table's field names; STRING, or DICT32 for a dictionary-frozen block)
// and the same rows as the block's zero-copy export before eviction. One
// block is frozen in gather mode and one in dictionary mode, over INT64,
// FLOAT64, STRING and DICT32 columns with NULLs.
func TestEvictedObjectIsPlainArrow(t *testing.T) {
	fs, err := objstore.NewFSStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(WithObjectStoreBackend(fs), WithTierSweepInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tbl, err := eng.CreateTable("objects", NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "score", Type: arrow.FLOAT64, Nullable: true},
		Field{Name: "name", Type: STRING, Nullable: true},
		Field{Name: "tag", Type: arrow.DICT32, Nullable: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	modes := []transform.Mode{transform.ModeGather, transform.ModeDictionary}
	for b := range modes {
		err := eng.Update(func(tx *Txn) error {
			row := tbl.NewRow()
			for i := 0; i < 150; i++ {
				id := int64(b*1000 + i)
				row.Reset()
				row.Set("id", id)
				if id%5 == 0 {
					row.Set("score", nil)
				} else {
					row.Set("score", float64(id)/8)
				}
				if id%7 == 0 {
					row.Set("name", nil)
				} else {
					row.Set("name", fmt.Sprintf("name-%d-long-enough-to-spill", id%13))
				}
				if id%4 == 0 {
					row.Set("tag", nil)
				} else {
					row.Set("tag", []string{"red", "green", "blue"}[id%3])
				}
				if _, err := tbl.Insert(tx, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		blk := tbl.Blocks()[len(tbl.Blocks())-1]
		blk.SetInsertHead(blk.Layout.NumSlots)
	}
	for i := 0; i < 3; i++ {
		eng.RunGC()
	}
	for i, blk := range tbl.Blocks() {
		if blk.HasActiveVersions() {
			t.Fatal("version chains not pruned; cannot freeze")
		}
		blk.SetState(storage.StateFreezing)
		if err := transform.GatherBlock(blk, modes[i], nil); err != nil {
			t.Fatal(err)
		}
	}

	type rendered struct {
		schema string
		rows   []string
	}
	var exported []rendered
	err = eng.View(func(tx *Txn) error {
		_, _, err := tbl.ExportBatches(tx, func(rb *RecordBatch, zeroCopy bool) error {
			if !zeroCopy {
				return fmt.Errorf("block exported by copy; want every block frozen")
			}
			s, rows := renderBatch(rb)
			exported = append(exported, rendered{s, rows})
			return nil
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exported) != len(modes) {
		t.Fatalf("exported %d batches, want %d", len(exported), len(modes))
	}
	if n, err := eng.Admin().EvictAll(); err != nil || n != len(modes) {
		t.Fatalf("EvictAll = %d, %v", n, err)
	}

	for i, blk := range tbl.Blocks() {
		data, err := fs.Get(blk.ColdKey().Key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := arrow.ReadTable(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("block %d: object is not an Arrow stream: %v (starts %q)", i, err, data[:min(8, len(data))])
		}
		if len(got.Batches) != 1 {
			t.Fatalf("block %d: object holds %d batches, want 1", i, len(got.Batches))
		}
		schema, rows := renderBatch(got.Batches[0])
		if schema != exported[i].schema {
			t.Fatalf("block %d: object schema %q, export %q", i, schema, exported[i].schema)
		}
		if len(rows) != len(exported[i].rows) {
			t.Fatalf("block %d: object holds %d rows, export %d", i, len(rows), len(exported[i].rows))
		}
		for r := range rows {
			if rows[r] != exported[i].rows[r] {
				t.Fatalf("block %d row %d: object %s, export %s", i, r, rows[r], exported[i].rows[r])
			}
		}
	}
	if !strings.Contains(exported[0].schema, "tag:"+arrow.STRING.String()) || !strings.Contains(exported[1].schema, "name:"+arrow.DICT32.String()) {
		t.Fatalf("export schemas %q / %q do not show the gather and dictionary encodings", exported[0].schema, exported[1].schema)
	}
}
