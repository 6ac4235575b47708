package txn

import (
	"encoding/binary"
	"sync"
	"testing"

	"mainline/internal/raceflag"
	"mainline/internal/storage"
)

func TestTimestampFlags(t *testing.T) {
	if !IsUncommitted(MakeUncommitted(5)) {
		t.Fatal("flagged ts not uncommitted")
	}
	if IsUncommitted(5) {
		t.Fatal("plain ts uncommitted")
	}
	// Uncommitted stamps are never visible under unsigned comparison.
	if Visible(MakeUncommitted(1), ^uint64(0)>>1) {
		t.Fatal("uncommitted visible")
	}
	if !Visible(3, 3) || !Visible(2, 3) || Visible(4, 3) {
		t.Fatal("visibility ordering wrong")
	}
}

func TestTimestampSourceMonotonic(t *testing.T) {
	var s TimestampSource
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		ts := s.Next()
		if ts <= prev {
			t.Fatalf("timestamp regressed: %d after %d", ts, prev)
		}
		prev = ts
	}
	if s.Current() != prev {
		t.Fatal("Current != last issued")
	}
}

func TestTimestampSourceConcurrent(t *testing.T) {
	var s TimestampSource
	const workers, per = 8, 1000
	out := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				out[w] = append(out[w], s.Next())
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool, workers*per)
	for _, ws := range out {
		for _, ts := range ws {
			if seen[ts] {
				t.Fatalf("duplicate timestamp %d", ts)
			}
			seen[ts] = true
		}
	}
}

func TestUndoBufferSegments(t *testing.T) {
	pool := NewSegmentPool()
	b := NewUndoBuffer(pool)
	var recs []*storage.UndoRecord
	for i := 0; i < UndoSegmentCap*3+5; i++ {
		recs = append(recs, b.NewRecord())
	}
	if b.Len() != UndoSegmentCap*3+5 {
		t.Fatalf("Len = %d", b.Len())
	}
	if pool.Outstanding() != 4 {
		t.Fatalf("outstanding segments = %d", pool.Outstanding())
	}
	// Records must be stable: pointers taken before growth still work.
	recs[0].SetTimestamp(42)
	if recs[0].Timestamp() != 42 {
		t.Fatal("record moved")
	}
	// Iterate visits in order.
	i := 0
	b.Iterate(func(r *storage.UndoRecord) bool {
		if r != recs[i] {
			t.Fatalf("iterate out of order at %d", i)
		}
		i++
		return true
	})
	// Reverse visits newest first.
	i = len(recs) - 1
	b.IterateReverse(func(r *storage.UndoRecord) bool {
		if r != recs[i] {
			t.Fatalf("reverse iterate out of order at %d", i)
		}
		i--
		return true
	})
	b.Release()
	if pool.Outstanding() != 0 {
		t.Fatalf("outstanding after release = %d", pool.Outstanding())
	}
	// Recycled segments come back zeroed.
	b2 := NewUndoBuffer(pool)
	r := b2.NewRecord()
	if r.Timestamp() != 0 || r.Next() != nil || r.Delta != nil {
		t.Fatal("recycled record not zeroed")
	}
}

func TestBeginCommitLifecycle(t *testing.T) {
	reg := storage.NewRegistry()
	m := NewManager(reg)
	t1 := m.Begin()
	if !IsUncommitted(t1.TxnTs()) || t1.TxnTs() != MakeUncommitted(t1.StartTs()) {
		t.Fatal("txn timestamps malformed")
	}
	if m.ActiveCount() != 1 {
		t.Fatalf("active = %d", m.ActiveCount())
	}
	called := false
	ts := m.Commit(t1, func(error) { called = true })
	if !t1.Committed() || t1.CommitTs() != ts || ts <= t1.StartTs() {
		t.Fatal("commit bookkeeping wrong")
	}
	if !called {
		t.Fatal("durable callback not invoked without logging")
	}
	if m.ActiveCount() != 0 {
		t.Fatal("txn still active after commit")
	}
	done := m.DrainCompleted()
	if len(done) != 1 || done[0] != t1 {
		t.Fatal("completed queue wrong")
	}
	if len(m.DrainCompleted()) != 0 {
		t.Fatal("drain not idempotent")
	}
}

func TestCommitStampsUndoRecords(t *testing.T) {
	reg := storage.NewRegistry()
	m := NewManager(reg)
	tx := m.Begin()
	r1 := tx.NewUndoRecord(storage.KindInsert, storage.NewTupleSlot(1, 0), nil)
	r2 := tx.NewUndoRecord(storage.KindUpdate, storage.NewTupleSlot(1, 1), nil)
	if r1.Timestamp() != tx.TxnTs() || r2.Timestamp() != tx.TxnTs() {
		t.Fatal("records not stamped with in-flight ts")
	}
	ts := m.Commit(tx, nil)
	if r1.Timestamp() != ts || r2.Timestamp() != ts {
		t.Fatal("commit did not restamp records")
	}
}

func TestOldestActiveTs(t *testing.T) {
	reg := storage.NewRegistry()
	m := NewManager(reg)
	t1 := m.Begin()
	t2 := m.Begin()
	if got := m.OldestActiveTs(); got != t1.StartTs() {
		t.Fatalf("oldest = %d, want %d", got, t1.StartTs())
	}
	m.Commit(t1, nil)
	if got := m.OldestActiveTs(); got != t2.StartTs() {
		t.Fatalf("oldest = %d, want %d", got, t2.StartTs())
	}
	m.Commit(t2, nil)
	if got := m.OldestActiveTs(); got <= t2.StartTs() {
		t.Fatalf("idle oldest = %d not past all txns", got)
	}
}

func TestAbortRestoresFixedUpdate(t *testing.T) {
	reg := storage.NewRegistry()
	layout, err := storage.NewBlockLayout([]storage.AttrDef{storage.FixedAttr(8), storage.VarlenAttr()})
	if err != nil {
		t.Fatal(err)
	}
	block := storage.NewBlock(reg, layout)
	slot, _ := block.TryAllocateSlot()
	tslot := storage.NewTupleSlot(block.ID, slot)

	// Seed in-place state.
	block.WriteFixed(0, slot, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	block.WriteVarlen(1, slot, []byte("original-value-quite-long"), nil)
	block.SetAllocated(slot, true)

	m := NewManager(reg)
	tx := m.Begin()
	// Build a before-image delta like DataTable.Update would.
	proj := storage.MustProjection(layout, []storage.ColumnID{0, 1})
	delta := proj.NewRow()
	delta.SetInt64(0, 0x0807060504030201)
	delta.SetVarlen(1, []byte("original-value-quite-long"))
	rec := tx.NewUndoRecord(storage.KindUpdate, tslot, delta)
	block.CASVersionPtr(slot, nil, rec)
	// Mutate in place.
	block.WriteFixed(0, slot, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	block.WriteVarlen(1, slot, []byte("overwritten-by-aborter"), nil)

	m.Abort(tx)
	if !tx.Aborted() {
		t.Fatal("not aborted")
	}
	if got := block.AttrBytes(0, slot); got[0] != 1 || got[7] != 8 {
		t.Fatalf("fixed not restored: %v", got)
	}
	if got := string(block.ReadVarlen(1, slot)); got != "original-value-quite-long" {
		t.Fatalf("varlen not restored: %q", got)
	}
	// Abort "commits" the record with a fresh timestamp, never unlinks.
	if block.VersionPtr(slot) != rec {
		t.Fatal("abort unlinked the record")
	}
	if IsUncommitted(rec.Timestamp()) {
		t.Fatal("aborted record still flagged uncommitted")
	}
	if rec.Timestamp() <= tx.StartTs() {
		t.Fatal("abort timestamp must be fresh, not the start timestamp")
	}
}

func TestAbortRestoresInsertDelete(t *testing.T) {
	reg := storage.NewRegistry()
	layout, _ := storage.NewBlockLayout([]storage.AttrDef{storage.FixedAttr(8)})
	block := storage.NewBlock(reg, layout)
	m := NewManager(reg)

	// Abort of insert hides the tuple.
	tx := m.Begin()
	slot, _ := block.TryAllocateSlot()
	ts := storage.NewTupleSlot(block.ID, slot)
	rec := tx.NewUndoRecord(storage.KindInsert, ts, nil)
	block.CASVersionPtr(slot, nil, rec)
	block.SetAllocated(slot, true)
	m.Abort(tx)
	if block.Allocated(slot) {
		t.Fatal("aborted insert still allocated")
	}

	// Abort of delete restores the tuple.
	slot2, _ := block.TryAllocateSlot()
	ts2 := storage.NewTupleSlot(block.ID, slot2)
	block.SetAllocated(slot2, true)
	tx2 := m.Begin()
	rec2 := tx2.NewUndoRecord(storage.KindDelete, ts2, nil)
	block.CASVersionPtr(slot2, nil, rec2)
	block.SetAllocated(slot2, false)
	m.Abort(tx2)
	if !block.Allocated(slot2) {
		t.Fatal("aborted delete not restored")
	}
}

func TestCommitHookReceivesRedo(t *testing.T) {
	reg := storage.NewRegistry()
	m := NewManager(reg)
	var hooked *Transaction
	var tables []uint32
	m.SetCommitHook(func(tx *Transaction) {
		hooked = tx
		// The redo buffer is valid only while the hook runs.
		for rest := tx.Redo(); len(rest) > 0; {
			var body []byte
			body, rest = NextRedo(rest)
			tables = append(tables, binary.LittleEndian.Uint32(body))
		}
		tx.FinishDurable(nil)
	})
	tx := m.Begin()
	tx.LogRedo(7, storage.NewTupleSlot(1, 2), storage.KindInsert, nil)
	fired := false
	m.Commit(tx, func(error) { fired = true })
	if hooked != tx {
		t.Fatal("hook not invoked")
	}
	if len(tables) != 1 || tables[0] != 7 {
		t.Fatalf("redo records lost: hook decoded tables %v, want [7]", tables)
	}
	if !fired {
		t.Fatal("durable callback not relayed")
	}
}

func TestDurableCallbackFiresOnce(t *testing.T) {
	reg := storage.NewRegistry()
	m := NewManager(reg)
	tx := m.Begin()
	count := 0
	m.SetCommitHook(func(x *Transaction) {
		x.FinishDurable(nil)
		x.FinishDurable(nil)
	})
	m.Commit(tx, func(error) { count++ })
	if count != 1 {
		t.Fatalf("callback fired %d times", count)
	}
}

func TestWriteSetSize(t *testing.T) {
	reg := storage.NewRegistry()
	m := NewManager(reg)
	tx := m.Begin()
	for i := 0; i < 10; i++ {
		tx.NewUndoRecord(storage.KindInsert, storage.NewTupleSlot(1, uint32(i)), nil)
	}
	if tx.WriteSetSize() != 10 {
		t.Fatalf("write set = %d", tx.WriteSetSize())
	}
	m.Commit(tx, nil)
}

// TestReadOnlyBeginCommitAllocs bounds transaction set-up: a read-only
// Begin + Commit allocates the Transaction itself and nothing else (the
// undo buffer lives inside it).
func TestReadOnlyBeginCommitAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	m := NewManager(storage.NewRegistry())
	allocs := testing.AllocsPerRun(1000, func() {
		m.Commit(m.Begin(), nil)
	})
	if allocs > 1 {
		t.Fatalf("read-only Begin + Commit allocates %.1f objects, want <= 1", allocs)
	}
}
