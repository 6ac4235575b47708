package storage

import (
	"encoding/binary"
	"testing"
)

func TestSelectionVectorPool(t *testing.T) {
	sv := GetSelectionVector(128)
	if sv.Len() != 0 {
		t.Fatalf("fresh vector has %d entries", sv.Len())
	}
	if cap(sv.Indices()) < 128 {
		t.Fatalf("capacity hint ignored: %d", cap(sv.Indices()))
	}
	sv.Append(3)
	sv.Append(9)
	if sv.Len() != 2 || sv.Indices()[1] != 9 {
		t.Fatalf("append broken: %v", sv.Indices())
	}
	// Kernel-style fill through SetIndices.
	out := sv.Indices()[:0]
	out = append(out, 1, 2, 3)
	sv.SetIndices(out)
	if sv.Len() != 3 {
		t.Fatalf("SetIndices: %v", sv.Indices())
	}
	PutSelectionVector(sv)
	sv2 := GetSelectionVector(8)
	if sv2.Len() != 0 {
		t.Fatal("pooled vector not reset")
	}
	PutSelectionVector(sv2)
}

func TestFrozenDictCodeRange(t *testing.T) {
	// Hand-build a sorted dictionary: ["ant", "bee", "cat", "dog"].
	words := []string{"ant", "bee", "cat", "dog"}
	var values []byte
	offsets := make([]byte, 0, (len(words)+1)*4)
	for _, w := range words {
		offsets = binary.LittleEndian.AppendUint32(offsets, uint32(len(values)))
		values = append(values, w...)
	}
	offsets = binary.LittleEndian.AppendUint32(offsets, uint32(len(values)))
	d := &FrozenDict{DictOffsets: offsets, DictValues: values, NumEntries: len(words)}

	check := func(lo, hi string, loS, hiS bool, wantLo, wantHi int32) {
		t.Helper()
		var loB, hiB []byte
		if lo != "-" {
			loB = []byte(lo)
		}
		if hi != "-" {
			hiB = []byte(hi)
		}
		gotLo, gotHi := d.CodeRange(loB, hiB, loS, hiS)
		if gotLo != wantLo || gotHi != wantHi {
			t.Fatalf("CodeRange(%q,%q,%v,%v) = [%d,%d), want [%d,%d)", lo, hi, loS, hiS, gotLo, gotHi, wantLo, wantHi)
		}
	}
	check("-", "-", false, false, 0, 4)     // unbounded
	check("bee", "cat", false, false, 1, 3) // inclusive
	check("bee", "cat", true, true, 2, 2)   // strict both: empty
	check("aardvark", "-", false, false, 0, 4)
	check("emu", "-", false, false, 4, 4) // above all: empty
	check("-", "ant", false, true, 0, 0)  // strictly below first: empty
	check("b", "cz", false, false, 1, 3)  // between entries
	if got := string(d.Value(2)); got != "cat" {
		t.Fatalf("Value(2) = %q", got)
	}
}
