package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"mainline/internal/storage"
)

// walGoldenSHA256 is the digest of the log TestWALBytesGolden writes. The
// on-disk format is shared with every existing data directory, so a change
// to how or when records are encoded must leave these bytes alone.
const walGoldenSHA256 = "d7fcf19b3a250c5d8200ebe284b6f5da2aa1ae3f313640f98e51f7cdada9f60f"

// TestWALBytesGolden drives one deterministic single-threaded history —
// inserts with inline, spilled and NULL values, a partial update, a delete
// and a read-only commit — through the log manager and pins the bytes it
// writes.
func TestWALBytesGolden(t *testing.T) {
	m, table := testTable(t)
	sink := &memSink{}
	lm := NewLogManager(sink)
	m.SetCommitHook(lm.Hook())

	full := table.AllColumnsProjection()
	var slots []storage.TupleSlot
	tx := m.Begin()
	row := full.NewRow()
	for i, v := range []string{"short", strings.Repeat("spilled-", 5), ""} {
		row.Reset()
		row.SetInt64(0, int64(100+i))
		row.SetVarlen(1, []byte(v))
		s, err := table.Insert(tx, row)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	row.Reset()
	row.SetNull(0)
	row.SetNull(1)
	s, err := table.Insert(tx, row)
	if err != nil {
		t.Fatal(err)
	}
	slots = append(slots, s)
	m.Commit(tx, nil)

	tx = m.Begin()
	upd := storage.MustProjection(table.Layout(), []storage.ColumnID{1}).NewRow()
	upd.SetVarlen(0, []byte("updated-to-a-longer-value"))
	if err := table.Update(tx, slots[0], upd); err != nil {
		t.Fatal(err)
	}
	if err := table.Delete(tx, slots[2]); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx, nil)
	m.Commit(m.Begin(), nil) // read-only
	lm.FlushOnce()

	sum := sha256.Sum256(sink.bytes())
	if got := hex.EncodeToString(sum[:]); got != walGoldenSHA256 {
		t.Fatalf("WAL bytes changed: sha256 %s, want %s", got, walGoldenSHA256)
	}
}
