package wal

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"mainline/internal/core"
)

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, seq := range []uint64{1, 42, 99999999} {
		name := SegmentName(seq)
		got, ok := ParseSegmentName(name)
		if !ok || got != seq {
			t.Fatalf("%s -> (%d,%v)", name, got, ok)
		}
	}
	for _, bad := range []string{"wal-1.log", "wal-abcdefgh.log", "foo.log", "wal-00000001.tmp"} {
		if _, ok := ParseSegmentName(bad); ok {
			t.Fatalf("%q parsed as a segment", bad)
		}
	}
}

// TestLatencySinkForwardsSegments pins that an emulated-latency wrapper
// keeps a segmented sink rotating and truncating: without the forwarding,
// every group would land in one segment with no timestamp attribution and
// a checkpoint could never release it.
func TestLatencySinkForwardsSegments(t *testing.T) {
	m, table := testTable(t)
	seg, err := OpenSegmentedSink(t.TempDir(), 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	lm := NewLogManager(&LatencySink{Inner: seg, SyncLatency: time.Microsecond})
	lm.Attach(m)
	var lastTs uint64
	for i := 0; i < 6; i++ {
		tx := m.Begin()
		row := table.AllColumnsProjection().NewRow()
		row.SetInt64(0, int64(i))
		row.SetVarlen(1, make([]byte, 200))
		if _, err := table.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
		lastTs = m.Commit(tx, nil)
		lm.FlushOnce()
	}
	sealed := seg.SealedSegments()
	if len(sealed) < 2 || sealed[0].MaxTs == 0 {
		t.Fatalf("no attributed rotation through the wrapper: %+v", sealed)
	}
	removed, err := lm.Truncate(lastTs)
	if err != nil || removed != len(sealed)+1 {
		t.Fatalf("Truncate = %d, %v; want %d", removed, err, len(sealed)+1)
	}
	if err := lm.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	m, table := testTable(t)
	sink, err := OpenSegmentedSink(dir, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	lm := NewLogManager(sink)
	lm.Attach(m)

	commit := func(i int) uint64 {
		tx := m.Begin()
		row := table.AllColumnsProjection().NewRow()
		row.SetInt64(0, int64(i))
		row.SetVarlen(1, make([]byte, 200))
		if _, err := table.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
		ts := m.Commit(tx, nil)
		lm.FlushOnce()
		return ts
	}

	var midTs uint64
	for i := 0; i < 10; i++ {
		ts := commit(i)
		if i == 4 {
			midTs = ts
		}
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(segs))
	}
	sealed := sink.SealedSegments()
	if len(sealed) != len(segs)-1 {
		t.Fatalf("sealed %d segments, listed %d", len(sealed), len(segs))
	}
	for _, s := range sealed {
		if s.MaxTs == 0 || s.Size == 0 {
			t.Fatalf("sealed segment missing attribution: %+v", s)
		}
	}

	// Truncating through midTs removes only segments wholly at or below it.
	removed, err := lm.Truncate(midTs)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("no segments truncated")
	}
	for _, s := range sink.SealedSegments() {
		if s.MaxTs <= midTs {
			t.Fatalf("segment %d (maxTs %d) survived truncation through %d", s.Seq, s.MaxTs, midTs)
		}
	}

	// All later commits must still be recoverable from the retained tail.
	if err := lm.Close(); err != nil {
		t.Fatal(err)
	}
	m2, table2 := testTable(t)
	segs, err = ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := &RecoveryResult{}
	opts := &ReplayOptions{AfterTs: 0}
	for _, s := range segs {
		res, err := ReplayFile(s.Path, m2, map[uint32]*core.DataTable{1: table2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		total.TxnsApplied += res.TxnsApplied
	}
	check := m2.Begin()
	defer m2.Commit(check, nil)
	n := table2.CountVisible(check)
	if n != total.TxnsApplied {
		t.Fatalf("visible %d != applied %d", n, total.TxnsApplied)
	}
	if n < 5 {
		t.Fatalf("retained tail recovered only %d rows", n)
	}
}

// TestSegmentedSinkResumesAfterExisting verifies a reopened sink never
// appends to pre-existing segment files.
func TestSegmentedSinkResumesAfterExisting(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SegmentName(7)), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	sink, err := OpenSegmentedSink(dir, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, size := sink.ActiveSegment()
	if seq != 8 || size != 0 {
		t.Fatalf("active segment %d/%d, want fresh segment 8", seq, size)
	}
	if _, err := sink.WriteGroup([]byte("abc"), 3); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(filepath.Join(dir, SegmentName(7)))
	if err != nil || string(old) != "old" {
		t.Fatalf("pre-existing segment modified: %q %v", old, err)
	}
}
