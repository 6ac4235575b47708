package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mainline/internal/core"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

func testTable(t *testing.T) (*txn.Manager, *core.DataTable) {
	t.Helper()
	reg := storage.NewRegistry()
	layout, err := storage.NewBlockLayout([]storage.AttrDef{storage.FixedAttr(8), storage.VarlenAttr()})
	if err != nil {
		t.Fatal(err)
	}
	return txn.NewManager(reg), core.NewDataTable(reg, layout, 1, "wal-test")
}

// memSink is an in-memory Sink with injectable failures.
type memSink struct {
	mu       sync.Mutex
	buf      bytes.Buffer
	synced   int
	failNext error
}

func (s *memSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failNext != nil {
		err := s.failNext
		s.failNext = nil
		return 0, err
	}
	return s.buf.Write(p)
}
func (s *memSink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.synced++
	return nil
}
func (s *memSink) Close() error { return nil }
func (s *memSink) bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

func TestSerializerRoundTrip(t *testing.T) {
	_, table := testTable(t)
	proj := storage.MustProjection(table.Layout(), []storage.ColumnID{0, 1})
	row := proj.NewRow()
	row.SetInt64(0, 42)
	row.SetVarlen(1, []byte("varlen-value"))

	var buf []byte
	buf = AppendRedo(buf, 7, txn.RedoRecord{TableID: 1, Slot: storage.NewTupleSlot(3, 4), Kind: storage.KindInsert, After: row})
	buf = AppendCommit(buf, 7, false)

	rec, rest, err := DecodeNext(buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != recRedo || rec.CommitTs != 7 || rec.TableID != 1 || rec.Slot != storage.NewTupleSlot(3, 4) || rec.Kind != storage.KindInsert {
		t.Fatalf("redo header wrong: %+v", rec)
	}
	if len(rec.Cols) != 2 {
		t.Fatalf("cols = %d", len(rec.Cols))
	}
	if rec.Cols[0].Varlen || !bytes.Equal(rec.Cols[0].Value, row.FixedBytes(0)) {
		t.Fatal("fixed column wrong")
	}
	if !rec.Cols[1].Varlen || string(rec.Cols[1].Value) != "varlen-value" {
		t.Fatal("varlen column wrong")
	}
	rec2, rest, err := DecodeNext(rest)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Type != recCommit || rec2.CommitTs != 7 || rec2.ReadOnly {
		t.Fatalf("commit record wrong: %+v", rec2)
	}
	if len(rest) != 0 {
		t.Fatal("trailing bytes")
	}
}

func TestSerializerNulls(t *testing.T) {
	_, table := testTable(t)
	proj := storage.MustProjection(table.Layout(), []storage.ColumnID{0, 1})
	row := proj.NewRow()
	row.SetNull(0)
	row.SetNull(1)
	buf := AppendRedo(nil, 1, txn.RedoRecord{TableID: 1, Slot: 1 << 20, Kind: storage.KindUpdate, After: row})
	rec, _, err := DecodeNext(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Cols[0].Null || !rec.Cols[1].Null {
		t.Fatal("nulls lost")
	}
}

func TestDecodeTornTail(t *testing.T) {
	buf := AppendCommit(nil, 9, false)
	for cut := 1; cut < len(buf); cut++ {
		rec, rest, err := DecodeNext(buf[:cut])
		if err != nil || rec != nil || len(rest) != cut {
			t.Fatalf("cut %d: rec=%v err=%v", cut, rec, err)
		}
	}
}

func TestDecodeCorruption(t *testing.T) {
	buf := AppendCommit(nil, 9, false)
	buf[len(buf)-1] ^= 0xFF
	if _, _, err := DecodeNext(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestGroupCommitAndCallbacks(t *testing.T) {
	m, table := testTable(t)
	sink := &memSink{}
	lm := NewLogManager(sink)
	m.SetCommitHook(lm.Hook())

	var mu sync.Mutex
	durable := 0
	for i := 0; i < 5; i++ {
		tx := m.Begin()
		row := table.AllColumnsProjection().NewRow()
		row.SetInt64(0, int64(i))
		row.SetVarlen(1, []byte("v"))
		if _, err := table.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
		m.Commit(tx, func(error) { mu.Lock(); durable++; mu.Unlock() })
	}
	mu.Lock()
	if durable != 0 {
		mu.Unlock()
		t.Fatal("callback before flush")
	}
	mu.Unlock()
	lm.FlushOnce()
	mu.Lock()
	if durable != 5 {
		mu.Unlock()
		t.Fatalf("durable = %d", durable)
	}
	mu.Unlock()
	txns, bytesW, syncs := lm.Stats()
	if txns != 5 || bytesW == 0 || syncs != 1 {
		t.Fatalf("stats: %d %d %d", txns, bytesW, syncs)
	}
}

func TestReadOnlyCommitSkipsWrite(t *testing.T) {
	m, _ := testTable(t)
	sink := &memSink{}
	lm := NewLogManager(sink)
	m.SetCommitHook(lm.Hook())
	fired := false
	tx := m.Begin()
	m.Commit(tx, func(error) { fired = true })
	lm.FlushOnce()
	if !fired {
		t.Fatal("read-only callback not fired")
	}
	// A commit record is written (the paper requires read-only commit
	// records in the queue) but it is marked read-only so recovery ignores
	// it.
	rec, _, err := DecodeNext(sink.bytes())
	if err != nil || rec == nil {
		t.Fatalf("decode: %v", err)
	}
	if rec.Type != recCommit || !rec.ReadOnly {
		t.Fatalf("record: %+v", rec)
	}
}

func TestBackgroundFlush(t *testing.T) {
	m, table := testTable(t)
	sink := &memSink{}
	lm := NewLogManager(sink)
	m.SetCommitHook(lm.Hook())
	lm.Start(time.Millisecond)
	defer lm.Stop()

	done := make(chan struct{})
	tx := m.Begin()
	row := table.AllColumnsProjection().NewRow()
	row.SetInt64(0, 1)
	row.SetVarlen(1, []byte("x"))
	if _, err := table.Insert(tx, row); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx, func(error) { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("background flush never fired callback")
	}
}

func TestFlushErrorSurvivable(t *testing.T) {
	m, table := testTable(t)
	sink := &memSink{failNext: errors.New("disk on fire")}
	lm := NewLogManager(sink)
	var got error
	lm.OnError = func(err error) { got = err }
	m.SetCommitHook(lm.Hook())
	tx := m.Begin()
	row := table.AllColumnsProjection().NewRow()
	row.SetInt64(0, 1)
	if _, err := table.Insert(tx, row); err != nil {
		t.Fatal(err)
	}
	var derr error
	fired := false
	m.Commit(tx, func(err error) { fired = true; derr = err })
	lm.FlushOnce()
	if got == nil {
		t.Fatal("error not surfaced")
	}
	// Fail-stop for durability: the waiter is failed, not left hanging —
	// and never acked with a nil error.
	if !fired {
		t.Fatal("durability callback not failed on flush error")
	}
	if !errors.Is(derr, ErrLogFailed) {
		t.Fatalf("callback error = %v, want ErrLogFailed", derr)
	}
	if lm.FailedFlushes() != 1 {
		t.Fatalf("failed flushes = %d", lm.FailedFlushes())
	}
}

// End-to-end: run a workload with logging, "crash", recover into a fresh
// engine, verify contents.
func TestRecoveryEndToEnd(t *testing.T) {
	m, table := testTable(t)
	sink := &memSink{}
	lm := NewLogManager(sink)
	m.SetCommitHook(lm.Hook())

	var slots []storage.TupleSlot
	for i := 0; i < 10; i++ {
		tx := m.Begin()
		row := table.AllColumnsProjection().NewRow()
		row.SetInt64(0, int64(i))
		row.SetVarlen(1, []byte("name-of-a-row-that-spills"))
		slot, err := table.Insert(tx, row)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, slot)
		m.Commit(tx, nil)
	}
	// Update row 3, delete row 5.
	tx := m.Begin()
	u := storage.MustProjection(table.Layout(), []storage.ColumnID{0}).NewRow()
	u.SetInt64(0, 333)
	if err := table.Update(tx, slots[3], u); err != nil {
		t.Fatal(err)
	}
	if err := table.Delete(tx, slots[5]); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx, nil)
	// An uncommitted transaction at crash time must be discarded: enqueue
	// redo records without a commit record by writing them manually.
	lm.FlushOnce()
	img := sink.bytes()
	orphan := AppendRedo(nil, 999999, txn.RedoRecord{TableID: 1, Slot: slots[0], Kind: storage.KindDelete})
	img = append(img, orphan...)

	// Recover into a fresh engine.
	m2, table2 := testTable(t)
	res, err := Replay(img, m2, map[uint32]*core.DataTable{1: table2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TxnsApplied != 11 {
		t.Fatalf("applied = %d", res.TxnsApplied)
	}
	if res.TxnsDiscarded != 1 {
		t.Fatalf("discarded = %d", res.TxnsDiscarded)
	}

	check := m2.Begin()
	defer m2.Commit(check, nil)
	got := map[int64]bool{}
	proj := storage.MustProjection(table2.Layout(), []storage.ColumnID{0})
	_ = table2.Scan(check, proj, func(_ storage.TupleSlot, row *storage.ProjectedRow) bool {
		got[row.Int64(0)] = true
		return true
	})
	if len(got) != 9 {
		t.Fatalf("recovered %d rows: %v", len(got), got)
	}
	if got[5] {
		t.Fatal("deleted row recovered")
	}
	if got[3] || !got[333] {
		t.Fatal("update not recovered")
	}
}

func TestRecoveryTornTail(t *testing.T) {
	m, table := testTable(t)
	sink := &memSink{}
	lm := NewLogManager(sink)
	m.SetCommitHook(lm.Hook())
	tx := m.Begin()
	row := table.AllColumnsProjection().NewRow()
	row.SetInt64(0, 1)
	row.SetVarlen(1, []byte("x"))
	if _, err := table.Insert(tx, row); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx, nil)
	lm.FlushOnce()
	img := sink.bytes()
	img = append(img, 0xAB, 0xCD) // torn partial frame

	m2, table2 := testTable(t)
	res, err := Replay(img, m2, map[uint32]*core.DataTable{1: table2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TornTail || res.TxnsApplied != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRecoverFromFile(t *testing.T) {
	dir := t.TempDir()
	sink, err := OpenSegmentedSink(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, table := testTable(t)
	lm := NewLogManager(sink)
	m.SetCommitHook(lm.Hook())
	tx := m.Begin()
	row := table.AllColumnsProjection().NewRow()
	row.SetInt64(0, 77)
	row.SetVarlen(1, []byte("persisted"))
	if _, err := table.Insert(tx, row); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx, nil)
	lm.FlushOnce()
	if err := lm.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}

	m2, table2 := testTable(t)
	res, err := ReplayFile(segs[0].Path, m2, map[uint32]*core.DataTable{1: table2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TxnsApplied != 1 || res.RecordsApplied != 1 {
		t.Fatalf("res = %+v", res)
	}
	check := m2.Begin()
	defer m2.Commit(check, nil)
	if table2.CountVisible(check) != 1 {
		t.Fatal("row not recovered")
	}
	// Missing file is not an error.
	res2, err := ReplayFile(filepath.Join(dir, "missing.log"), m2, nil, nil)
	if err != nil || res2.TxnsApplied != 0 {
		t.Fatalf("missing log: %v %+v", err, res2)
	}
}
