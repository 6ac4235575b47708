package storage

import (
	"bytes"
	"testing"
)

func projLayout(t *testing.T) *BlockLayout {
	t.Helper()
	layout, err := NewBlockLayout([]AttrDef{
		FixedAttr(8), VarlenAttr(), FixedAttr(4), FixedAttr(2), FixedAttr(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return layout
}

func TestProjectionConstruction(t *testing.T) {
	layout := projLayout(t)
	p, err := NewProjection(layout, []ColumnID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 3 {
		t.Fatalf("NumCols = %d", p.NumCols())
	}
	if p.IndexOf(2) != 2 || p.IndexOf(4) != -1 {
		t.Fatal("IndexOf wrong")
	}
	if _, err := NewProjection(layout, []ColumnID{0, 0}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := NewProjection(layout, []ColumnID{99}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
}

func TestProjectedRowFixedValues(t *testing.T) {
	layout := projLayout(t)
	p := MustProjection(layout, []ColumnID{0, 2, 3, 4})
	r := p.NewRow()
	r.SetInt64(0, -99)
	r.SetInt32(1, 1234)
	r.SetInt16(2, -5)
	r.SetInt8(3, 7)
	if r.Int64(0) != -99 || r.Int32(1) != 1234 || r.Int16(2) != -5 || r.Int8(3) != 7 {
		t.Fatal("fixed round-trip failed")
	}
	for i := 0; i < 4; i++ {
		if r.IsNull(i) {
			t.Fatalf("col %d null after set", i)
		}
	}
	r.SetNull(1)
	if !r.IsNull(1) || r.Int32(1) != 0 {
		t.Fatal("SetNull did not zero")
	}
}

func TestProjectedRowVarlen(t *testing.T) {
	layout := projLayout(t)
	p := MustProjection(layout, []ColumnID{1})
	r := p.NewRow()
	val := []byte("hello world, varlen")
	r.SetVarlen(0, val)
	if !bytes.Equal(r.Varlen(0), val) {
		t.Fatal("varlen round-trip failed")
	}
	r.SetNull(0)
	if r.Varlen(0) != nil || !r.IsNull(0) {
		t.Fatal("null varlen not cleared")
	}
}

func TestProjectedRowCloneAndCopy(t *testing.T) {
	layout := projLayout(t)
	p := MustProjection(layout, []ColumnID{0, 1})
	r := p.NewRow()
	r.SetInt64(0, 42)
	r.SetVarlen(1, []byte("abc"))
	c := r.Clone()
	r.SetInt64(0, 7) // mutate original
	if c.Int64(0) != 42 {
		t.Fatal("clone shares fixed storage")
	}
	if !bytes.Equal(c.Varlen(1), []byte("abc")) {
		t.Fatal("clone lost varlen")
	}
	c.Reset()
	if c.Int64(0) != 0 || c.Varlen(1) != nil {
		t.Fatal("reset incomplete")
	}
}

func TestUndoRecordChainOps(t *testing.T) {
	r1 := &UndoRecord{Kind: KindInsert}
	r2 := &UndoRecord{Kind: KindUpdate}
	r2.SetNext(r1)
	if r2.Next() != r1 {
		t.Fatal("SetNext/Next broken")
	}
	if !r2.CompareAndSwapNext(r1, nil) {
		t.Fatal("CAS next failed")
	}
	if r2.CompareAndSwapNext(r1, nil) {
		t.Fatal("stale CAS next succeeded")
	}
	r1.SetTimestamp(42)
	if r1.Timestamp() != 42 {
		t.Fatal("timestamp round-trip failed")
	}
	if KindUpdate.String() != "update" || KindInsert.String() != "insert" || KindDelete.String() != "delete" {
		t.Fatal("kind strings wrong")
	}
}
