package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mainline/internal/gc"
	"mainline/internal/raceflag"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// checkedValue builds a value of n bytes (n >= 8) whose first four bytes
// are the CRC of the rest, so a reader can tell a whole value from a torn
// or foreign one.
func checkedValue(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	rng.Read(v[4:])
	binary.LittleEndian.PutUint32(v, crc32.ChecksumIEEE(v[4:]))
	return v
}

func valueIntact(v []byte) bool {
	return len(v) >= storage.DedicatedSlabMin &&
		binary.LittleEndian.Uint32(v) == crc32.ChecksumIEEE(v[4:])
}

func updatePayload(t *testing.T, m *txn.Manager, table *DataTable, slot storage.TupleSlot, v []byte, commit bool) {
	t.Helper()
	tx := m.Begin()
	u := storage.MustProjection(table.Layout(), []storage.ColumnID{1}).NewRow()
	u.SetVarlen(0, v)
	if err := table.Update(tx, slot, u); err != nil {
		t.Fatal(err)
	}
	if commit {
		m.Commit(tx, nil)
	} else {
		m.Abort(tx)
	}
}

// TestAbortReleasesAbortedSlab aborts an update of a large value: the
// rollback's overwrite must retire the aborted value's slab, never the one
// it restores, so after the GC the restored value still reads back and
// the arena holds only its slab.
func TestAbortReleasesAbortedSlab(t *testing.T) {
	m, table := testEnv(t)
	collector := gc.New(m)
	rng := rand.New(rand.NewSource(1))
	orig := checkedValue(rng, 300)
	slot := insertRow(t, m, table, 1, string(orig))
	block := table.reg.BlockFor(slot)
	for range 3 {
		updatePayload(t, m, table, slot, checkedValue(rng, 400), false)
		collector.RunOnce()
	}
	collector.RunOnce()
	collector.RunOnce()
	if _, got, ok := readRow(t, m, table, slot); !ok || got != string(orig) {
		t.Fatalf("after aborts and GC: found=%v, intact=%v", ok, valueIntact([]byte(got)))
	}
	if n := block.ArenaBytes(); n != int64(len(orig)) {
		t.Fatalf("arena holds %d bytes, want the restored value's %d", n, len(orig))
	}
}

// TestDedicatedSlabsBounded overwrites one large value K times, with GC
// passes in between: the block's arena must end up holding only the live
// value's slab, not one slab per overwrite.
func TestDedicatedSlabsBounded(t *testing.T) {
	const k = 500
	m, table := testEnv(t)
	collector := gc.New(m)
	rng := rand.New(rand.NewSource(2))
	slot := insertRow(t, m, table, 1, string(checkedValue(rng, 200)))
	block := table.reg.BlockFor(slot)
	var last []byte
	for i := range k {
		last = checkedValue(rng, storage.DedicatedSlabMin+i%300)
		updatePayload(t, m, table, slot, last, i%5 != 4)
		if i%10 == 0 {
			collector.RunOnce()
		}
		if n := block.ArenaBytes(); n > 64<<10 {
			t.Fatalf("after %d overwrites the arena holds %d bytes", i+1, n)
		}
	}
	collector.RunOnce()
	collector.RunOnce()
	_, got, ok := readRow(t, m, table, slot)
	if !ok || !valueIntact([]byte(got)) {
		t.Fatalf("final value lost: found=%v", ok)
	}
	if n, want := block.ArenaBytes(), int64(len(got)); n != want {
		t.Fatalf("after %d overwrites and GC the arena holds %d bytes, want %d", k, n, want)
	}
	if block.ArenaSize() != 1 {
		t.Fatalf("live arena values = %d, want 1", block.ArenaSize())
	}
	held, released := table.reg.ArenaBytes()
	if held != int64(len(got)) || released == 0 {
		t.Fatalf("registry: held %d, released %d", held, released)
	}
}

// TestArenaReleaseStress overwrites large checksummed values on a few
// shared rows from several writers, some of which abort, while the GC
// runs throughout and readers verify every value they see: readers at
// old snapshots (which must also keep seeing the same value), fresh
// Selects and scans.
func TestArenaReleaseStress(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("in-place writes are repaired by the version chain, not synchronized")
	}
	const rows = 6
	m, table := testEnv(t)
	collector := gc.New(m)
	rng := rand.New(rand.NewSource(3))
	slots := make([]storage.TupleSlot, rows)
	for i := range slots {
		slots[i] = insertRow(t, m, table, int64(i), string(checkedValue(rng, 256)))
	}
	dur := 1500 * time.Millisecond
	if testing.Short() {
		dur = 300 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var stop atomic.Bool
	var failures atomic.Int64
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}
	upd := storage.MustProjection(table.Layout(), []storage.ColumnID{1})
	all := table.AllColumnsProjection()

	var commits, aborts atomic.Int64
	for w := range 3 {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			u := upd.NewRow()
			for !stop.Load() {
				tx := m.Begin()
				slot := slots[rng.Intn(rows)]
				u.SetVarlen(0, checkedValue(rng, storage.DedicatedSlabMin+rng.Intn(500)))
				if err := table.Update(tx, slot, u); err != nil || rng.Intn(4) == 0 {
					m.Abort(tx)
					aborts.Add(1)
					continue
				}
				m.Commit(tx, nil)
				commits.Add(1)
			}
		}(int64(10 + w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			collector.RunOnce()
			runtime.Gosched()
		}
	}()
	// Old-snapshot readers: hold one snapshot across many reads, which
	// must all return the value first seen, intact.
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := all.NewRow()
		for !stop.Load() {
			tx := m.Begin()
			first := make([][]byte, rows)
			for range 20 {
				for i, slot := range slots {
					found, err := table.Select(tx, slot, out)
					v := out.Varlen(1)
					switch {
					case err != nil || !found:
						fail("old snapshot: row %d found=%v err=%v", i, found, err)
					case !valueIntact(v):
						fail("old snapshot: row %d value corrupt (%d bytes)", i, len(v))
					case first[i] == nil:
						first[i] = bytes.Clone(v)
					case !bytes.Equal(first[i], v):
						fail("old snapshot: row %d changed under the snapshot", i)
					}
				}
				time.Sleep(time.Millisecond)
			}
			m.Commit(tx, nil)
		}
	}()
	// Fresh Select and scan readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := all.NewRow()
		for !stop.Load() {
			tx := m.Begin()
			for i, slot := range slots {
				found, err := table.Select(tx, slot, out)
				if err != nil || !found || !valueIntact(out.Varlen(1)) {
					fail("select: row %d found=%v err=%v", i, found, err)
				}
			}
			n := 0
			if err := table.Scan(tx, all, func(_ storage.TupleSlot, row *storage.ProjectedRow) bool {
				n++
				if !valueIntact(row.Varlen(1)) {
					fail("scan: row %d value corrupt", row.Int64(0))
				}
				return true
			}); err != nil || n != rows {
				fail("scan: %d rows, err %v", n, err)
			}
			m.Commit(tx, nil)
		}
	}()
	for time.Now().Before(deadline) && failures.Load() == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if commits.Load() == 0 || aborts.Load() == 0 {
		t.Fatalf("workload did not mix: %d commits, %d aborts", commits.Load(), aborts.Load())
	}
	collector.RunOnce()
	collector.RunOnce()
	var live int64
	for i, slot := range slots {
		_, v, ok := readRow(t, m, table, slot)
		if !ok || !valueIntact([]byte(v)) {
			t.Fatalf("row %d lost after the run", i)
		}
		live += int64(len(v))
	}
	if held, _ := table.reg.ArenaBytes(); held != live {
		t.Fatalf("arena holds %d bytes after quiescence, live values %d", held, live)
	}
}
