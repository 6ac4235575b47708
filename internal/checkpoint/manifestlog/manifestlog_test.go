package manifestlog

// Torture tests for the manifest commit log: torn-tail truncation at
// every byte boundary, corrupted mid-log records, resolution semantics
// (AsOf's typed errors), append-after-repair, and the refcounted orphan
// computation that backs snapshot pruning.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func testVersion(v, snapTs uint64, keys ...string) *VersionRecord {
	chunks := make([]ChunkRef, 0, len(keys))
	for i, k := range keys {
		chunks = append(chunks, ChunkRef{
			ObjectRef: ObjectRef{Key: k, Size: 100, CRC: uint32(v)*1000 + uint32(i)}, Rows: 10,
			Zones: []ZoneMap{{Col: 0, Min: int64(v * 10), Max: int64(v*10 + 9), HasValues: true}},
		})
	}
	return &VersionRecord{
		Version:    v,
		SnapshotTs: snapTs,
		LastTs:     snapTs + 1,
		Tables: []TableChunks{
			{ID: 1, Name: "item", Rows: int64(10 * len(keys)), Chunks: chunks,
				Fields: []FieldDef{{Name: "id", Type: 4}}},
		},
	}
}

func openOrDie(t *testing.T, path string) *Log {
	t.Helper()
	l, err := Open(nil, path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), LogName)
	l := openOrDie(t, path)
	if l.Latest() != nil {
		t.Fatal("fresh log should have no versions")
	}
	for v := uint64(1); v <= 3; v++ {
		if err := l.AppendVersion(testVersion(v, v*100, "chunk/a", "chunk/b")); err != nil {
			t.Fatalf("AppendVersion(%d): %v", v, err)
		}
	}

	re := openOrDie(t, path)
	if re.TornBytes() != 0 {
		t.Fatalf("clean log reported %d torn bytes", re.TornBytes())
	}
	vs := re.Versions()
	if len(vs) != 3 {
		t.Fatalf("reopened log has %d versions, want 3", len(vs))
	}
	for i, v := range vs {
		if v.Version != uint64(i+1) || v.SnapshotTs != uint64(i+1)*100 {
			t.Fatalf("version %d = {%d, %d}", i, v.Version, v.SnapshotTs)
		}
		if len(v.Tables) != 1 || len(v.Tables[0].Chunks) != 2 {
			t.Fatalf("version %d lost its chunk refs", v.Version)
		}
		if z := v.Tables[0].Chunks[0].Zones; len(z) != 1 || !z[0].HasValues {
			t.Fatalf("version %d lost its zone maps", v.Version)
		}
	}
}

func TestVersionMustAdvance(t *testing.T) {
	l := openOrDie(t, filepath.Join(t.TempDir(), LogName))
	if err := l.AppendVersion(testVersion(5, 100)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendVersion(testVersion(5, 200)); err == nil {
		t.Fatal("duplicate version number accepted")
	}
	if err := l.AppendVersion(testVersion(4, 200)); err == nil {
		t.Fatal("regressing version number accepted")
	}
}

// TestTornTailEveryByte truncates a multi-record log at every possible
// byte boundary: Open must never fail, must recover exactly the records
// wholly contained in the prefix, and must repair the file so a
// subsequent append extends valid history.
func TestTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden")
	l := openOrDie(t, golden)
	var boundaries []int64 // valid end offsets after each record
	for v := uint64(1); v <= 3; v++ {
		if err := l.AppendVersion(testVersion(v, v*100, "chunk/x")); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(golden)
		if err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, st.Size())
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}

	wantVersions := func(cut int64) int {
		n := 0
		for _, b := range boundaries {
			if b <= cut {
				n++
			}
		}
		return n
	}

	for cut := int64(0); cut <= int64(len(data)); cut++ {
		path := filepath.Join(dir, "torn")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		torn, err := Open(nil, path)
		if err != nil {
			t.Fatalf("cut=%d: Open failed: %v", cut, err)
		}
		got := len(torn.Versions())
		want := wantVersions(cut)
		if got != want {
			t.Fatalf("cut=%d: recovered %d versions, want %d", cut, got, want)
		}
		// The repair must be physical: the file now ends at the last
		// valid boundary.
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		var wantSize int64
		for _, b := range boundaries {
			if b <= cut {
				wantSize = b
			}
		}
		if st.Size() != wantSize {
			t.Fatalf("cut=%d: repaired size %d, want %d", cut, st.Size(), wantSize)
		}
		// Appending after repair extends valid history.
		if err := torn.AppendVersion(testVersion(100, 9999)); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		re := openOrDie(t, path)
		if got := len(re.Versions()); got != want+1 {
			t.Fatalf("cut=%d: after repair+append reopen has %d versions, want %d", cut, got, want+1)
		}
	}
}

// TestCorruptMidLogRecord flips one byte in the middle record of three:
// Open must fall back to the records before the corruption instead of
// failing, even though the damage is not at the tail.
func TestCorruptMidLogRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, LogName)
	l := openOrDie(t, path)
	var boundaries []int64
	for v := uint64(1); v <= 3; v++ {
		if err := l.AppendVersion(testVersion(v, v*100)); err != nil {
			t.Fatal(err)
		}
		st, _ := os.Stat(path)
		boundaries = append(boundaries, st.Size())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte inside record 2 (skip its 8-byte header so
	// the CRC check, not the length sanity check, catches it).
	data[boundaries[0]+8+4] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openOrDie(t, path)
	vs := re.Versions()
	if len(vs) != 1 || vs[0].Version != 1 {
		t.Fatalf("corrupt mid-log: recovered %d versions, want just version 1", len(vs))
	}
	if re.TornBytes() == 0 {
		t.Fatal("corruption not reported in TornBytes")
	}
	// Version 3 is gone — it sat beyond the corruption — but the log must
	// keep working: resolve against version 1 and append anew.
	if _, err := re.Resolve(100); err != nil {
		t.Fatalf("Resolve(100) after repair: %v", err)
	}
	if err := re.AppendVersion(testVersion(4, 400)); err != nil {
		t.Fatalf("append after mid-log repair: %v", err)
	}
}

func TestResolveSemantics(t *testing.T) {
	l := openOrDie(t, filepath.Join(t.TempDir(), LogName))
	for v := uint64(1); v <= 3; v++ {
		if err := l.AppendVersion(testVersion(v, v*100)); err != nil {
			t.Fatal(err)
		}
	}

	// Before all history.
	if _, err := l.Resolve(99); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("Resolve(99) = %v, want ErrNoVersion", err)
	}
	// Exact boundaries and in-between timestamps.
	for _, tc := range []struct {
		ts   uint64
		want uint64
	}{{100, 1}, {150, 1}, {200, 2}, {299, 2}, {300, 3}, {1 << 60, 3}} {
		v, err := l.Resolve(tc.ts)
		if err != nil {
			t.Fatalf("Resolve(%d): %v", tc.ts, err)
		}
		if v.Version != tc.want {
			t.Fatalf("Resolve(%d) = version %d, want %d", tc.ts, v.Version, tc.want)
		}
	}

	// Prune version 1: timestamps it served now return ErrVersionPruned,
	// not silently the wrong (newer) version and not ErrNoVersion.
	if err := l.AppendPrune([]uint64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Resolve(150); !errors.Is(err, ErrVersionPruned) {
		t.Fatalf("Resolve(150) after prune = %v, want ErrVersionPruned", err)
	}
	if v, err := l.Resolve(250); err != nil || v.Version != 2 {
		t.Fatalf("Resolve(250) after prune = %v, %v", v, err)
	}
	// Prune state survives reopen.
	re := openOrDie(t, l.path)
	if _, err := re.Resolve(150); !errors.Is(err, ErrVersionPruned) {
		t.Fatalf("reopened Resolve(150) = %v, want ErrVersionPruned", err)
	}
}

// TestUnreferencedKeys verifies the refcount: a key shared with a
// retained version must survive a prune; keys only the doomed versions
// reference are orphans.
func TestUnreferencedKeys(t *testing.T) {
	l := openOrDie(t, filepath.Join(t.TempDir(), LogName))
	// v1 references {a, b}; v2 references {b, c}; v3 references {c, d}.
	if err := l.AppendVersion(testVersion(1, 100, "chunk/a", "chunk/b")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendVersion(testVersion(2, 200, "chunk/b", "chunk/c")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendVersion(testVersion(3, 300, "chunk/c", "chunk/d")); err != nil {
		t.Fatal(err)
	}
	orphans := l.UnreferencedKeys([]uint64{1, 2})
	// b is shared with v2 (also doomed) → orphan; c is shared with
	// retained v3 → kept; a is v1-only → orphan.
	if len(orphans) != 2 || orphans[0] != "chunk/a" || orphans[1] != "chunk/b" {
		t.Fatalf("orphans = %v, want [chunk/a chunk/b]", orphans)
	}
}

func TestEmptyAndMissingLog(t *testing.T) {
	dir := t.TempDir()
	// Missing file.
	l := openOrDie(t, filepath.Join(dir, "missing"))
	if _, err := l.Resolve(1); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("missing log Resolve = %v, want ErrNoVersion", err)
	}
	// Empty file.
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openOrDie(t, empty)
	if l2.Latest() != nil {
		t.Fatal("empty log should have no versions")
	}
	// Pure garbage file: everything truncated, log usable.
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not a manifest log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	l3 := openOrDie(t, junk)
	if l3.Latest() != nil || l3.TornBytes() == 0 {
		t.Fatal("garbage log should recover empty with torn bytes reported")
	}
	if err := l3.AppendVersion(testVersion(1, 100)); err != nil {
		t.Fatal(err)
	}
}
