package storage

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestVarlenEntryInlineCodec(t *testing.T) {
	entry := make([]byte, VarlenAttrSize)
	for _, val := range [][]byte{nil, {}, []byte("a"), []byte("abcd"), []byte("abcdefghijkl")} {
		varlenEntryPutInline(entry, val)
		if !varlenEntryIsInline(entry) {
			t.Fatalf("value %q not inline", val)
		}
		if got := varlenEntryInline(entry); !bytes.Equal(got, val) {
			t.Fatalf("inline %q -> %q", val, got)
		}
		if int(varlenEntrySize(entry)) != len(val) {
			t.Fatalf("size = %d", varlenEntrySize(entry))
		}
	}
}

func TestVarlenEntrySpilledCodec(t *testing.T) {
	entry := make([]byte, VarlenAttrSize)
	val := []byte("a-much-longer-value-spilled")
	varlenEntryPutSpilled(entry, uint32(len(val)), val[:4], makeArenaHandle(3, 17))
	if varlenEntryIsInline(entry) {
		t.Fatal("spilled entry reads as inline")
	}
	if varlenEntrySize(entry) != uint32(len(val)) {
		t.Fatal("size wrong")
	}
	if !bytes.Equal(varlenEntryPrefix(entry), val[:4]) {
		t.Fatal("prefix wrong")
	}
	h := varlenEntryHandle(entry)
	if handleIsFrozen(h) || arenaHandleSlab(h) != 3 || arenaHandleOffset(h) != 17 {
		t.Fatalf("handle = %x", h)
	}
	varlenEntryPutSpilled(entry, uint32(len(val)), val[:4], makeFrozenHandle(4096))
	h = varlenEntryHandle(entry)
	if !handleIsFrozen(h) || handleValue(h) != 4096 {
		t.Fatalf("frozen handle = %x", h)
	}
}

// Property: the inline codec round-trips every value up to the limit.
func TestQuickVarlenInline(t *testing.T) {
	entry := make([]byte, VarlenAttrSize)
	f := func(val []byte) bool {
		if len(val) > VarlenInlineLimit {
			val = val[:VarlenInlineLimit]
		}
		varlenEntryPutInline(entry, val)
		return bytes.Equal(varlenEntryInline(entry), val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
