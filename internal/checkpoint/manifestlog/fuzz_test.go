package manifestlog

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzManifestLogOpen writes arbitrary bytes as MANIFEST.log and opens
// it. The log is the only recovery anchor, so Open must never panic: it
// returns an error or the versions of the longest valid prefix, and the
// file it repairs reopens clean to the same versions.
func FuzzManifestLogOpen(f *testing.F) {
	// Seeds: the torture test's version records, a prune record, and a
	// record with slot objects, plus a torn copy.
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed")
	l, err := Open(nil, seed)
	if err != nil {
		f.Fatal(err)
	}
	for v := uint64(1); v <= 3; v++ {
		if err := l.AppendVersion(testVersion(v, v*100, "chunk/a", "chunk/b")); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.AppendPrune([]uint64{1}); err != nil {
		f.Fatal(err)
	}
	rec := testVersion(4, 400, "chunk/c")
	rec.Tables[0].Chunks[0].Slots = ObjectRef{Key: "slots/c", Size: 80, CRC: 7}
	if err := l.AppendVersion(rec); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add([]byte{})

	path := filepath.Join(dir, LogName)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(nil, path)
		if err != nil {
			return
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != int64(len(data))-l.TornBytes() {
			t.Fatalf("repaired log is %d bytes, want %d - %d torn", st.Size(), len(data), l.TornBytes())
		}
		re, err := Open(nil, path)
		if err != nil {
			t.Fatalf("reopening the repaired log: %v", err)
		}
		if re.TornBytes() != 0 {
			t.Fatalf("repaired log still has %d torn bytes", re.TornBytes())
		}
		if !reflect.DeepEqual(l.Versions(), re.Versions()) || l.NextVersion() != re.NextVersion() {
			t.Fatal("reopening the repaired log changed its versions")
		}
	})
}
