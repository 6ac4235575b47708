package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"mainline/internal/storage"
	"mainline/internal/txn"
)

// TestScratchOverwriteClearsValidity pins the fast-path fallback bug a
// review caught: a copy whose version-pointer re-check fails leaves
// validity bits set at scratch row n, and the next read lands at the same
// row — its NULL columns must CLEAR the stale bits, or NULL surfaces as a
// non-NULL zero value. The next read is either the chain walk applying a
// NULL before-image or a fresh copy of a NULL in-place version.
func TestScratchOverwriteClearsValidity(t *testing.T) {
	layout, err := storage.NewBlockLayout([]storage.AttrDef{storage.FixedAttr(8), storage.VarlenAttr()})
	if err != nil {
		t.Fatal(err)
	}
	reg := storage.NewRegistry()
	block := storage.NewBlock(reg, layout)
	slot, _ := block.TryAllocateSlot()
	block.WriteFixed(0, slot, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	block.WriteVarlen(1, slot, []byte("value"), nil)
	block.SetAllocated(slot, true)

	proj := storage.MustProjection(layout, layout.AllColumns())
	scr := newScratch(proj)
	dst := cellSink{scr: scr}

	// A copy whose re-check failed: bits set at row 0, n unchanged.
	copyInPlace(block, slot, nil, dst)
	if !scr.valid[0].Test(0) || !scr.valid[1].Test(0) {
		t.Fatal("copyInPlace did not set validity")
	}

	// The retry finds a head too new for the reader whose before-image is
	// all NULL; the chain walk applies it at the same row, which must clear
	// the stale bits.
	tx := txn.NewManager(reg).Begin()
	nullRow := proj.NewRow()
	nullRow.SetNull(0)
	nullRow.SetNull(1)
	rec := &storage.UndoRecord{Kind: storage.KindUpdate, Delta: nullRow}
	rec.SetTimestamp(tx.StartTs() + 1)
	if !applyChain(tx, rec, true, dst) {
		t.Fatal("chain walk lost a present tuple")
	}
	if scr.valid[0].Test(0) || scr.valid[1].Test(0) {
		t.Fatal("applied NULL before-image left stale validity bits from the failed copy")
	}

	// Same leak through a later copy at a reused row: a null column must
	// clear, not skip.
	copyInPlace(block, slot, nil, dst) // sets bits at row 0, re-check "fails"
	block.WriteNull(0, slot, nil)
	block.WriteNull(1, slot, nil)
	copyInPlace(block, slot, nil, dst)
	if scr.valid[0].Test(0) || scr.valid[1].Test(0) {
		t.Fatal("copyInPlace left stale validity bits on null columns")
	}
}

// TestCopyInPlaceRecheck: a copy taken against a head that a writer has
// since replaced fails its re-check, into either kind of sink, so the
// reader retries instead of keeping bytes it cannot place in a version.
func TestCopyInPlaceRecheck(t *testing.T) {
	m, table := testEnv(t)
	slot := insertRow(t, m, table, 1, "before")
	block := table.Registry().BlockFor(slot)
	off := slot.Offset()
	head := block.VersionPtr(off)
	tx := m.Begin()
	u := storage.MustProjection(table.Layout(), []storage.ColumnID{1}).NewRow()
	u.SetVarlen(0, []byte("after"))
	if err := table.Update(tx, slot, u); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx, nil)
	all := table.AllColumnsProjection()
	for _, dst := range []cellSink{{out: all.NewRow()}, {scr: newScratch(all)}} {
		if copyInPlace(block, off, head, dst) {
			t.Fatalf("sink %+v: copy against a replaced head passed its re-check", dst)
		}
		if !copyInPlace(block, off, block.VersionPtr(off), dst) {
			t.Fatalf("sink %+v: copy against the current head failed its re-check", dst)
		}
	}
}

// TestApplyBeforeImage overlays a before-image whose projection is a
// reordered subset of the sink's, into both kinds of sink: covered columns
// take its values (NULL included), the others keep theirs.
func TestApplyBeforeImage(t *testing.T) {
	layout, err := storage.NewBlockLayout([]storage.AttrDef{storage.FixedAttr(8), storage.VarlenAttr(), storage.FixedAttr(4)})
	if err != nil {
		t.Fatal(err)
	}
	full := storage.MustProjection(layout, []storage.ColumnID{0, 1, 2})
	delta := storage.MustProjection(layout, []storage.ColumnID{2, 0})
	scr := newScratch(full)
	for _, dst := range []cellSink{{out: full.NewRow()}, {scr: scr, i: 3}} {
		dst.setFixed(0, binary.LittleEndian.AppendUint64(nil, 1))
		dst.setVarlen(1, []byte("keep"))
		dst.setFixed(2, binary.LittleEndian.AppendUint32(nil, 100))
		d := delta.NewRow()
		d.SetInt32(0, 999) // column 2
		d.SetInt64(1, -1)  // column 0
		dst.apply(d)
		got := sinkRow(dst)
		if got.Int64(0) != -1 || got.Int32(2) != 999 {
			t.Fatalf("sink %+v: columns 0, 2 = %d, %d; want -1, 999", dst, got.Int64(0), got.Int32(2))
		}
		if !bytes.Equal(got.Varlen(1), []byte("keep")) {
			t.Fatal("untouched column modified")
		}
		d2 := delta.NewRow()
		d2.SetNull(0)
		d2.SetInt64(1, 5)
		dst.apply(d2)
		if got := sinkRow(dst); !got.IsNull(2) || got.Int64(0) != 5 {
			t.Fatalf("sink %+v: NULL not applied", dst)
		}
	}
}

// TestQuickBeforeImageRestores: applying a before-image captured by
// copyInPlace, after the slot was rewritten in place, restores the exact
// prior values of the covered columns in either kind of sink.
func TestQuickBeforeImageRestores(t *testing.T) {
	layout, err := storage.NewBlockLayout([]storage.AttrDef{storage.FixedAttr(8), storage.VarlenAttr(), storage.FixedAttr(4)})
	if err != nil {
		t.Fatal(err)
	}
	reg := storage.NewRegistry()
	block := storage.NewBlock(reg, layout)
	slot, _ := block.TryAllocateSlot()
	full := storage.MustProjection(layout, layout.AllColumns())
	part := storage.MustProjection(layout, []storage.ColumnID{1, 0})
	scr := newScratch(full)
	f := func(before, after int64, bName, aName []byte, b32 int32) bool {
		row := full.NewRow()
		row.SetInt64(0, before)
		row.SetVarlen(1, bName)
		row.SetInt32(2, b32)
		block.WriteRow(slot, row, nil)
		delta := part.NewRow()
		copyInPlace(block, slot, nil, cellSink{out: delta})
		upd := part.NewRow()
		upd.SetVarlen(0, aName)
		upd.SetInt64(1, after)
		block.WriteRow(slot, upd, nil)
		for _, dst := range []cellSink{{out: full.NewRow()}, {scr: scr, i: 7}} {
			copyInPlace(block, slot, nil, dst)
			dst.apply(delta)
			got := sinkRow(dst)
			if got.Int64(0) != before || !bytes.Equal(got.Varlen(1), bName) || got.Int32(2) != b32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sinkRow returns the values a sink holds as a row.
func sinkRow(d cellSink) *storage.ProjectedRow {
	if d.out != nil {
		return d.out
	}
	row := d.scr.proj.NewRow()
	for j := range d.scr.proj.Cols {
		switch {
		case !d.scr.valid[j].Test(d.i):
			row.SetNull(j)
		case d.scr.vars[j] != nil:
			row.SetVarlen(j, d.scr.vars[j][d.i])
		default:
			w := d.scr.widths[j]
			copy(row.FixedBytes(j), d.scr.fixed[j][d.i*w:(d.i+1)*w])
			row.Nulls.Clear(j)
		}
	}
	return row
}

// TestNaNPredicateBoundMatchesNothing pins the NaN-bound fix: every float
// comparison against NaN is false, so a NaN bound must compile to the
// statically empty predicate instead of accidentally matching every row.
func TestNaNPredicateBoundMatchesNothing(t *testing.T) {
	for _, p := range []*Predicate{
		NewFloatPred(0, math.NaN(), math.NaN(), false, false),  // Eq(NaN)
		NewFloatPred(0, math.Inf(-1), math.NaN(), false, true), // Lt(NaN)
		NewFloatPred(0, math.NaN(), math.Inf(1), true, false),  // Gt(NaN)
	} {
		if !p.MatchNone {
			t.Fatalf("NaN-bounded predicate %+v not MatchNone", p)
		}
	}
	if NewFloatPred(0, 1, 2, false, false).MatchNone {
		t.Fatal("finite range wrongly MatchNone")
	}
}
