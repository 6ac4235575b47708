package core_test

// Index reads trust a candidate's key without re-encoding it when the
// candidate's block has never had a key column rewritten
// (storage.Block.Rewritten). These tests pin the cases where that trust
// would be wrong — a key-column update, a reader's own re-keying update,
// a slot refilled by a compaction move, an update that predates the
// index — and FuzzIndexOps checks interleavings of them against the
// per-slot Select reference.

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"mainline/internal/core"
	"mainline/internal/core/coretest"
	"mainline/internal/index"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// heldDeferrer holds the commit protocol's deferred index removals until
// the test releases them, standing in for the GC's action epoch: an entry
// a commit retires stays in the tree while older snapshots may run.
type heldDeferrer struct {
	now     int
	actions []heldAction
}

type heldAction struct {
	at int
	fn func()
}

func (d *heldDeferrer) RegisterAction(fn func()) {
	d.actions = append(d.actions, heldAction{d.now, fn})
}

// runBefore runs the actions registered before time limit.
func (d *heldDeferrer) runBefore(limit int) {
	kept := d.actions[:0]
	for _, a := range d.actions {
		if a.at < limit {
			a.fn()
		} else {
			kept = append(kept, a)
		}
	}
	d.actions = kept
}

// maskEnv is a table (key int64, val int64, note varlen) with an index on
// key; deferred index removals are held.
type maskEnv struct {
	tb    testing.TB
	m     *txn.Manager
	table *core.DataTable
	held  *heldDeferrer
	byKey *core.TableIndex
	byVal *core.TableIndex // nil until the fuzz target creates it
	// byValAt is the time byVal was created at.
	byValAt int
}

func newMaskEnv(tb testing.TB) *maskEnv {
	reg := storage.NewRegistry()
	layout, err := storage.NewBlockLayout([]storage.AttrDef{storage.FixedAttr(8), storage.FixedAttr(8), storage.VarlenAttr()})
	if err != nil {
		tb.Fatal(err)
	}
	e := &maskEnv{tb: tb, m: txn.NewManager(reg), held: &heldDeferrer{}}
	e.m.SetIndexDeferrer(e.held)
	e.table = core.NewDataTable(reg, layout, 1, "t")
	e.byKey = e.createIndex(0)
	return e
}

// createIndex attaches an index on int64 column col and backfills it.
func (e *maskEnv) createIndex(col storage.ColumnID) *core.TableIndex {
	ti, err := core.NewTableIndex(e.table, fmt.Sprintf("by_%d", col), []core.KeyCol{{Col: col, Kind: core.KeyInt, Width: 8}}, index.NewBTree())
	if err != nil {
		e.tb.Fatal(err)
	}
	e.table.AttachIndex(ti)
	tx := e.m.Begin()
	if _, err := ti.Backfill(tx); err != nil {
		e.tb.Fatal(err)
	}
	e.m.Commit(tx, nil)
	return ti
}

func (e *maskEnv) row(key, val int64, note string) *storage.ProjectedRow {
	row := e.table.AllColumnsProjection().NewRow()
	row.SetInt64(0, key)
	row.SetInt64(1, val)
	row.SetVarlen(2, []byte(note))
	return row
}

func (e *maskEnv) insert(key, val int64) storage.TupleSlot {
	tx := e.m.Begin()
	slot, err := e.table.Insert(tx, e.row(key, val, "n"))
	if err != nil {
		e.tb.Fatal(err)
	}
	e.m.Commit(tx, nil)
	return slot
}

// updateInt sets int64 column col of slot inside tx.
func (e *maskEnv) updateInt(tx *txn.Transaction, slot storage.TupleSlot, col storage.ColumnID, v int64) {
	row := storage.MustProjection(e.table.Layout(), []storage.ColumnID{col}).NewRow()
	row.SetInt64(0, v)
	if err := e.table.Update(tx, slot, row); err != nil {
		e.tb.Fatal(err)
	}
}

func (e *maskEnv) commitUpdate(slot storage.TupleSlot, col storage.ColumnID, v int64) {
	tx := e.m.Begin()
	e.updateInt(tx, slot, col, v)
	e.m.Commit(tx, nil)
}

func keyOf(v int64) []byte { return index.NewKeyBuilder(8).Int64(v).Clone() }

// lookup runs GetVisible for v, materializing the row; ok reports a hit
// whose row carries v in ti's column.
func (e *maskEnv) lookup(tx *txn.Transaction, ti *core.TableIndex, v int64) (storage.TupleSlot, bool) {
	out := e.table.AllColumnsProjection().NewRow()
	slot, ok := ti.GetVisible(tx, keyOf(v), out)
	if ok && out.Int64(int(ti.KeyColumns()[0])) != v {
		e.tb.Fatalf("GetVisible(%d) returned slot %v whose row holds %d", v, slot, out.Int64(int(ti.KeyColumns()[0])))
	}
	return slot, ok
}

// expectHits checks which of the keys tx finds through ti, with and
// without a row to materialize.
func (e *maskEnv) expectHits(tx *txn.Transaction, ti *core.TableIndex, want map[int64]bool) {
	e.tb.Helper()
	for v, hit := range want {
		if _, ok := e.lookup(tx, ti, v); ok != hit {
			e.tb.Fatalf("GetVisible(%d) = %v, want %v", v, ok, hit)
		}
		if _, ok := ti.GetVisible(tx, keyOf(v), nil); ok != hit {
			e.tb.Fatalf("GetVisible(%d) without row = %v, want %v", v, ok, hit)
		}
	}
}

func TestIndexKeyUpdateSnapshots(t *testing.T) {
	e := newMaskEnv(t)
	before := e.m.Begin()
	slot := e.insert(1, 0)
	// No key column rewritten yet: the block's key bytes are trusted, but
	// a snapshot older than the insert still must not see the row.
	e.expectHits(before, e.byKey, map[int64]bool{1: false})
	old := e.m.Begin()
	e.commitUpdate(slot, 0, 2)
	// The entry (1, slot) is still in the tree: its removal is held.
	e.expectHits(old, e.byKey, map[int64]bool{1: true, 2: false})
	fresh := e.m.Begin()
	e.expectHits(fresh, e.byKey, map[int64]bool{1: false, 2: true})
	e.expectHits(before, e.byKey, map[int64]bool{1: false, 2: false})
	e.m.Commit(before, nil)
	e.m.Commit(old, nil)
	e.m.Commit(fresh, nil)
}

func TestIndexOwnRekeyingUpdate(t *testing.T) {
	e := newMaskEnv(t)
	slot := e.insert(1, 0)
	tx := e.m.Begin()
	e.updateInt(tx, slot, 0, 2)
	e.expectHits(tx, e.byKey, map[int64]bool{1: false, 2: true})
	e.m.Commit(tx, nil)
}

// A transaction that re-keys a row back to a key whose entry's removal is
// still held finds the pair both in the tree and among its own pending
// insertions; a range read emits it once.
func TestIndexAscendOwnRepublishedPairOnce(t *testing.T) {
	e := newMaskEnv(t)
	slot := e.insert(1, 0)
	e.commitUpdate(slot, 0, 0) // (1, slot)'s removal is held
	tx := e.m.Begin()
	e.updateInt(tx, slot, 0, 1)
	var got []storage.TupleSlot
	e.byKey.Ascend(tx, nil, nil, e.table.AllColumnsProjection().NewRow(), func(s storage.TupleSlot, _ *storage.ProjectedRow) bool {
		got = append(got, s)
		return true
	})
	if !slices.Equal(got, []storage.TupleSlot{slot}) {
		t.Fatalf("Ascend emitted %v, want [%v]", got, slot)
	}
	e.m.Commit(tx, nil)
}

func TestIndexCompactionMoveIntoRetiredSlot(t *testing.T) {
	e := newMaskEnv(t)
	gap := e.insert(7, 0)
	from := e.insert(9, 0)
	tx := e.m.Begin()
	if err := e.table.Delete(tx, gap); err != nil {
		t.Fatal(err)
	}
	e.m.Commit(tx, nil)
	// GC stand-in: no snapshot needs the gap's versions any more, but the
	// removal of its entry (7, gap) is still held.
	e.table.Registry().BlockFor(gap).SetVersionPtr(gap.Offset(), nil)

	// The compactor's move: delete the source, refill the gap.
	tx = e.m.Begin()
	row := e.table.AllColumnsProjection().NewRow()
	if found, err := e.table.Select(tx, from, row); !found || err != nil {
		t.Fatalf("source: %v %v", found, err)
	}
	if err := e.table.Delete(tx, from); err != nil {
		t.Fatal(err)
	}
	if err := e.table.InsertIntoSlot(tx, gap, row); err != nil {
		t.Fatal(err)
	}
	e.m.Commit(tx, nil)

	fresh := e.m.Begin()
	e.expectHits(fresh, e.byKey, map[int64]bool{7: false, 9: true})
	if s, _ := e.lookup(fresh, e.byKey, 9); s != gap {
		t.Fatalf("moved tuple found at %v, want %v", s, gap)
	}
	e.m.Commit(fresh, nil)
}

func TestIndexCreatedAfterKeyUpdate(t *testing.T) {
	e := newMaskEnv(t)
	slot := e.insert(1, 10)
	old := e.m.Begin()
	e.commitUpdate(slot, 1, 20) // the val column, not yet indexed
	byVal := e.createIndex(1)
	// The backfill published (20, slot) only. The old snapshot must not
	// take the version it sees, which holds 10, for a match; finding it
	// under 10 is not owed, since the index is younger than the snapshot
	// (the engine's CreateIndex waits such snapshots out).
	e.expectHits(old, byVal, map[int64]bool{20: false})
	fresh := e.m.Begin()
	e.expectHits(fresh, byVal, map[int64]bool{10: false, 20: true})
	e.m.Commit(old, nil)
	e.m.Commit(fresh, nil)
}

// check compares every index read of tx, which began at time at, with the
// per-slot Select reference: each key's GetVisible (with and without a
// row to materialize), and one Ascend over the whole index. An index
// created after tx began owes tx no tuple (the backfill saw only what was
// visible then), so its reads are held only to return nothing the
// reference lacks.
func (e *maskEnv) check(tx *txn.Transaction, at int, domain int64) {
	e.tb.Helper()
	for _, ti := range []*core.TableIndex{e.byKey, e.byVal} {
		if ti == nil {
			continue
		}
		complete := ti != e.byVal || at > e.byValAt
		col := int(ti.KeyColumns()[0])
		type hit struct {
			key  int64
			slot storage.TupleSlot
		}
		var want []hit
		err := coretest.SelectScan(e.table, tx, e.table.AllColumnsProjection(), func(s storage.TupleSlot, r *storage.ProjectedRow) bool {
			want = append(want, hit{r.Int64(col), s})
			return true
		})
		if err != nil {
			e.tb.Fatal(err)
		}
		order := func(a, b hit) int {
			if c := bytes.Compare(keyOf(a.key), keyOf(b.key)); c != 0 {
				return c
			}
			return cmp.Compare(a.slot, b.slot)
		}
		slices.SortFunc(want, order)
		for v := int64(0); v < domain; v++ {
			slot, ok := e.lookup(tx, ti, v)
			_, okNil := ti.GetVisible(tx, keyOf(v), nil)
			exp := slices.ContainsFunc(want, func(h hit) bool { return h.key == v })
			if complete && (ok != exp || okNil != exp) || ok && !slices.Contains(want, hit{v, slot}) || okNil && !exp {
				e.tb.Fatalf("%s GetVisible(%d) = %v %v (without row %v), reference %v", ti.Name(), v, slot, ok, okNil, want)
			}
		}
		var got []hit
		ti.Ascend(tx, nil, nil, e.table.AllColumnsProjection().NewRow(), func(s storage.TupleSlot, r *storage.ProjectedRow) bool {
			got = append(got, hit{r.Int64(col), s})
			return true
		})
		// Keys come in order; a key's own pending insertions precede its
		// published entries, so slots are compared as a set.
		if !slices.IsSortedFunc(got, func(a, b hit) int { return bytes.Compare(keyOf(a.key), keyOf(b.key)) }) {
			e.tb.Fatalf("%s Ascend out of key order: %v", ti.Name(), got)
		}
		slices.SortFunc(got, order)
		if !complete {
			want = slices.DeleteFunc(want, func(h hit) bool { return !slices.Contains(got, h) })
		}
		if !slices.EqualFunc(got, want, func(a, b hit) bool { return a == b }) {
			e.tb.Fatalf("%s Ascend = %v, reference %v", ti.Name(), got, want)
		}
	}
}

// FuzzIndexOps interleaves inserts, key and non-key updates, deletes,
// compaction moves into retired slots, the creation of a second index,
// held and released entry removals, and reads by snapshots of every age,
// and checks each read against the per-slot Select reference.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 5, 1, 0, 3, 9, 3, 0, 4, 0, 9, 8, 9, 5, 2, 1, 9, 7, 9})
	f.Add([]byte{0, 3, 0, 3, 0, 3, 5, 3, 1, 4, 1, 9, 4, 0, 9, 8, 1, 1, 1, 9, 6, 7, 9, 4, 1, 9})
	f.Add([]byte{8, 0, 1, 5, 1, 2, 2, 9, 0, 5, 3, 1, 4, 2, 9, 7, 9, 6, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		const domain = 6
		e := newMaskEnv(t)
		type snap struct {
			tx *txn.Transaction
			at int
		}
		var snaps []snap
		var live []storage.TupleSlot
		type retired struct {
			slot storage.TupleSlot
			at   int
		}
		var gaps []retired
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		pick := func(n int) int { return next() % n }
		for len(data) > 0 {
			e.held.now++
			switch next() % 10 {
			case 0: // insert
				live = append(live, e.insert(int64(pick(domain)), int64(pick(domain))))
			case 1, 2: // key update (of the second index's column too), own reads checked
				if len(live) == 0 {
					continue
				}
				tx := e.m.Begin()
				e.updateInt(tx, live[pick(len(live))], storage.ColumnID(pick(2)), int64(pick(domain)))
				e.check(tx, e.held.now, domain)
				e.m.Commit(tx, nil)
			case 3: // non-key update
				if len(live) == 0 {
					continue
				}
				tx := e.m.Begin()
				row := storage.MustProjection(e.table.Layout(), []storage.ColumnID{2}).NewRow()
				row.SetVarlen(0, bytes.Repeat([]byte{'x'}, pick(40)))
				if err := e.table.Update(tx, live[pick(len(live))], row); err != nil {
					t.Fatal(err)
				}
				e.m.Commit(tx, nil)
			case 4: // delete
				if len(live) == 0 {
					continue
				}
				i := pick(len(live))
				tx := e.m.Begin()
				if err := e.table.Delete(tx, live[i]); err != nil {
					t.Fatal(err)
				}
				e.m.Commit(tx, nil)
				gaps = append(gaps, retired{live[i], e.held.now})
				live = slices.Delete(live, i, i+1)
			case 5: // compaction move of a live tuple into a retired slot
				if len(live) == 0 || len(gaps) == 0 {
					continue
				}
				gi, li := pick(len(gaps)), pick(len(live))
				g := gaps[gi]
				if slices.ContainsFunc(snaps, func(s snap) bool { return s.at <= g.at }) {
					continue // a snapshot still needs the gap's versions
				}
				e.table.Registry().BlockFor(g.slot).SetVersionPtr(g.slot.Offset(), nil)
				tx := e.m.Begin()
				row := e.table.AllColumnsProjection().NewRow()
				if found, err := e.table.Select(tx, live[li], row); !found || err != nil {
					t.Fatalf("move source %v: %v %v", live[li], found, err)
				}
				if err := e.table.Delete(tx, live[li]); err != nil {
					t.Fatal(err)
				}
				if err := e.table.InsertIntoSlot(tx, g.slot, row); err != nil {
					t.Fatal(err)
				}
				e.m.Commit(tx, nil)
				gaps[gi] = retired{live[li], e.held.now}
				live[li] = g.slot
			case 6: // open a snapshot
				if len(snaps) == 4 {
					e.m.Commit(snaps[0].tx, nil)
					snaps = snaps[1:]
				}
				snaps = append(snaps, snap{e.m.Begin(), e.held.now})
			case 7: // close a snapshot, release the removals no snapshot needs
				if len(snaps) > 0 {
					i := pick(len(snaps))
					e.m.Commit(snaps[i].tx, nil)
					snaps = slices.Delete(snaps, i, i+1)
				}
				oldest := e.held.now
				for _, s := range snaps {
					oldest = min(oldest, s.at)
				}
				e.held.runBefore(oldest)
			case 8: // create the second index
				if e.byVal == nil {
					e.byVal, e.byValAt = e.createIndex(1), e.held.now
				}
			case 9: // every snapshot, and a fresh one, reads
				for _, s := range snaps {
					e.check(s.tx, s.at, domain)
				}
				tx := e.m.Begin()
				e.check(tx, e.held.now, domain)
				e.m.Commit(tx, nil)
			}
		}
		for _, s := range snaps {
			e.check(s.tx, s.at, domain)
			e.m.Commit(s.tx, nil)
		}
	})
}
