package transform

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"mainline/internal/core"
	"mainline/internal/gc"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

func testEnv(t *testing.T) (*txn.Manager, *core.DataTable) {
	t.Helper()
	reg := storage.NewRegistry()
	layout, err := storage.NewBlockLayout([]storage.AttrDef{storage.FixedAttr(8), storage.VarlenAttr()})
	if err != nil {
		t.Fatal(err)
	}
	return txn.NewManager(reg), core.NewDataTable(reg, layout, 1, "transform-test")
}

// fillBlocks inserts `perBlock` tuples into each of n fresh blocks by
// capping insertion heads, then deletes a fraction to open gaps. Returns
// the blocks and the surviving ids.
func fillBlocks(t *testing.T, m *txn.Manager, table *core.DataTable, nBlocks, perBlock int, deleteEvery int) map[int64]string {
	t.Helper()
	survivors := make(map[int64]string)
	var slots []storage.TupleSlot
	var ids []int64
	id := int64(0)
	for b := 0; b < nBlocks; b++ {
		var blk *storage.Block
		for i := 0; i < perBlock; i++ {
			tx := m.Begin()
			row := table.AllColumnsProjection().NewRow()
			val := fmt.Sprintf("value-%d-with-some-extra-length", id)
			row.SetInt64(0, id)
			row.SetVarlen(1, []byte(val))
			slot, err := table.Insert(tx, row)
			if err != nil {
				t.Fatal(err)
			}
			m.Commit(tx, nil)
			if blk == nil {
				blk = table.Registry().BlockFor(slot)
			}
			slots = append(slots, slot)
			ids = append(ids, id)
			survivors[id] = val
			id++
		}
		// Force the next insert into a new block.
		blk.SetInsertHead(blk.Layout.NumSlots)
	}
	if deleteEvery > 0 {
		tx := m.Begin()
		for i := 0; i < len(slots); i += deleteEvery {
			if err := table.Delete(tx, slots[i]); err != nil {
				t.Fatal(err)
			}
			delete(survivors, ids[i])
		}
		m.Commit(tx, nil)
	}
	return survivors
}

// pruneAll runs GC until chains are gone.
func pruneAll(m *txn.Manager) {
	g := gc.New(m)
	for i := 0; i < 3; i++ {
		g.RunOnce()
	}
}

func scanAll(t *testing.T, m *txn.Manager, table *core.DataTable) map[int64]string {
	t.Helper()
	tx := m.Begin()
	defer m.Commit(tx, nil)
	got := make(map[int64]string)
	_ = table.Scan(tx, table.AllColumnsProjection(), func(_ storage.TupleSlot, row *storage.ProjectedRow) bool {
		got[row.Int64(0)] = string(row.Varlen(1))
		return true
	})
	return got
}

func mapsEqual(a, b map[int64]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestPlanCompactionShape(t *testing.T) {
	m, table := testEnv(t)
	fillBlocks(t, m, table, 3, 100, 2) // 3 sparse blocks + empty tail
	pruneAll(m)
	blocks := table.Blocks()[:3]
	plan := PlanCompaction(blocks, false)
	if plan.TotalTuples != 150 {
		t.Fatalf("t = %d", plan.TotalTuples)
	}
	s := int(table.Layout().NumSlots)
	if plan.SlotsPerBlock != s {
		t.Fatalf("s = %d", plan.SlotsPerBlock)
	}
	// 150 tuples fit in 0 full blocks (s ~32K) + 1 partial.
	if len(plan.Full) != 0 || plan.Partial == nil || len(plan.Empty) != 2 {
		t.Fatalf("plan: F=%d p=%v E=%d", len(plan.Full), plan.Partial != nil, len(plan.Empty))
	}
}

// Property: the approximate plan is within (t mod s) movements of optimal
// (the paper's §4.3 bound). Uses a synthetic occupancy model.
func TestQuickApproxWithinBound(t *testing.T) {
	reg := storage.NewRegistry()
	layout, err := storage.NewBlockLayout([]storage.AttrDef{storage.FixedAttr(8)})
	if err != nil {
		t.Fatal(err)
	}
	f := func(fills []uint16) bool {
		if len(fills) < 2 {
			return true
		}
		if len(fills) > 8 {
			fills = fills[:8]
		}
		// Build synthetic blocks with the given occupancy in tiny prefixes.
		blocks := make([]*storage.Block, len(fills))
		total := 0
		for i, f16 := range fills {
			b := storage.NewBlock(reg, layout)
			fill := int(f16) % 200
			for s := 0; s < fill; s++ {
				b.SetAllocated(uint32(s), true)
			}
			b.SetInsertHead(200)
			blocks[i] = b
			total += fill
		}
		if total == 0 {
			return true
		}
		approx := PlanCompaction(blocks, false)
		optimal := PlanCompaction(blocks, true)
		rem := total % int(layout.NumSlots)
		return approx.Movements <= optimal.Movements+rem && optimal.Movements <= approx.Movements
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactGroupPreservesData(t *testing.T) {
	m, table := testEnv(t)
	want := fillBlocks(t, m, table, 3, 200, 3)
	pruneAll(m)
	blocks := table.Blocks()[:3]
	res, err := CompactGroup(m, table, blocks, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved == 0 {
		t.Fatal("expected movements")
	}
	// Write set is a delete+insert pair per move.
	if res.WriteSetSize != 2*res.Moved {
		t.Fatalf("writeset = %d, moved = %d", res.WriteSetSize, res.Moved)
	}
	got := scanAll(t, m, table)
	if !mapsEqual(want, got) {
		t.Fatalf("data changed by compaction: %d vs %d rows", len(want), len(got))
	}
	// Tuples are logically contiguous: ⌊t/s⌋ full, one partial, rest empty.
	t2 := res.Plan.TotalTuples
	if len(res.Plan.Full) != t2/int(table.Layout().NumSlots) {
		t.Fatalf("full blocks = %d", len(res.Plan.Full))
	}
	if res.Plan.Partial != nil {
		rem := t2 % int(table.Layout().NumSlots)
		for s := 0; s < rem; s++ {
			if !res.Plan.Partial.Allocated(uint32(s)) {
				t.Fatalf("gap at slot %d of partial block", s)
			}
		}
	}
	for _, e := range res.EmptiedBlocks {
		if e.FilledSlots() != 0 {
			t.Fatalf("emptied block still has %d tuples", e.FilledSlots())
		}
	}
	// Surviving blocks are cooling.
	for _, b := range res.Plan.Full {
		if b.State() != storage.StateCooling {
			t.Fatalf("full block state %s", b.State())
		}
	}
}

func TestCompactGroupAbortsOnConflict(t *testing.T) {
	m, table := testEnv(t)
	fillBlocks(t, m, table, 2, 50, 2)
	pruneAll(m)
	blocks := table.Blocks()[:2]
	// A user transaction holds an uncommitted update on a tuple that must
	// move (every tuple of the sparser block is a mover candidate).
	var victim storage.TupleSlot
	blocks[1].IterateAllocated(func(s uint32) bool {
		victim = storage.NewTupleSlot(blocks[1].ID, s)
		return false
	})
	user := m.Begin()
	u := storage.MustProjection(table.Layout(), []storage.ColumnID{0}).NewRow()
	u.SetInt64(0, -1)
	if err := table.Update(user, victim, u); err != nil {
		t.Fatal(err)
	}
	if _, err := CompactGroup(m, table, blocks, false); err == nil {
		t.Fatal("compaction should abort on user conflict")
	}
	m.Commit(user, nil)
	// User transaction's effect survives.
	tx := m.Begin()
	out := table.AllColumnsProjection().NewRow()
	found, _ := table.Select(tx, victim, out)
	m.Commit(tx, nil)
	if !found || out.Int64(0) != -1 {
		t.Fatal("user update lost")
	}
}

func freezeViaPipeline(t *testing.T, m *txn.Manager, table *core.DataTable, mode Mode) *Transformer {
	t.Helper()
	g := gc.New(m)
	obs := NewObserver()
	obs.Watch(table)
	g.SetObserver(obs)
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.Threshold = 0 // everything is instantly cold
	tr := New(m, g, obs, cfg)
	for i := 0; i < 10; i++ {
		g.RunOnce()
		tr.RunOnce()
	}
	return tr
}

func allFrozen(table *core.DataTable) bool {
	for _, b := range table.Blocks() {
		if b.InsertHead() > 0 && b.State() != storage.StateFrozen {
			return false
		}
	}
	return true
}

func TestPipelineFreezesAndPreservesData(t *testing.T) {
	m, table := testEnv(t)
	want := fillBlocks(t, m, table, 3, 300, 4)
	tr := freezeViaPipeline(t, m, table, ModeGather)
	if !allFrozen(table) {
		st := tr.Stats()
		t.Fatalf("blocks not frozen; stats %+v, cooling %d", st, tr.CoolingCount())
	}
	got := scanAll(t, m, table)
	if !mapsEqual(want, got) {
		t.Fatalf("data changed by freeze: want %d rows got %d", len(want), len(got))
	}
	// Frozen varlen columns expose contiguous Arrow buffers.
	for _, b := range table.Blocks() {
		if b.FrozenRows() == 0 {
			continue
		}
		fv := b.FrozenVarlenCol(1)
		if fv == nil || len(fv.Offsets) == 0 {
			t.Fatal("frozen varlen buffers missing")
		}
		if b.ArenaSize() != 0 {
			t.Fatal("hot arena not released at freeze")
		}
	}
	// Emptied blocks were recycled.
	if tr.Stats().BlocksRecycled == 0 {
		t.Fatal("no blocks recycled")
	}
}

func TestPipelineDictionaryMode(t *testing.T) {
	m, table := testEnv(t)
	// Few distinct values: dictionary pays off.
	tx := m.Begin()
	colors := []string{"red-a-rather-long-color", "green-a-rather-long-color", "blue-a-rather-long-color"}
	for i := 0; i < 300; i++ {
		row := table.AllColumnsProjection().NewRow()
		row.SetInt64(0, int64(i))
		row.SetVarlen(1, []byte(colors[i%3]))
		if _, err := table.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
	}
	m.Commit(tx, nil)
	freezeViaPipeline(t, m, table, ModeDictionary)
	if !allFrozen(table) {
		t.Fatal("not frozen")
	}
	var b *storage.Block
	for _, blk := range table.Blocks() {
		if blk.FrozenRows() > 0 {
			b = blk
			break
		}
	}
	d := b.FrozenDictCol(1)
	if d == nil {
		t.Fatal("no dictionary")
	}
	// 3 distinct values → 4 offsets; codes for every row.
	if len(d.DictOffsets) < 4*4 {
		t.Fatalf("dict offsets len %d", len(d.DictOffsets))
	}
	// Reads still resolve through the dictionary.
	got := scanAll(t, m, table)
	if len(got) != 300 {
		t.Fatalf("rows after dict freeze: %d", len(got))
	}
	for id, v := range got {
		if v != colors[id%3] {
			t.Fatalf("row %d reads %q", id, v)
		}
	}
}

func TestGatherRequiresFreezing(t *testing.T) {
	m, table := testEnv(t)
	fillBlocks(t, m, table, 1, 10, 0)
	b := table.Blocks()[0]
	if err := GatherBlock(b, ModeGather, nil); err == nil {
		t.Fatal("gather on hot block accepted")
	}
	_ = m
}

func TestTryFreezeRespectsVersions(t *testing.T) {
	m, table := testEnv(t)
	fillBlocks(t, m, table, 1, 10, 0)
	b := table.Blocks()[0]
	b.SetState(storage.StateCooling)
	tr := New(m, nil, NewObserver(), DefaultConfig())
	// Versions still present (no GC ran): must retry, not freeze.
	if got := tr.TryFreeze(b); got != freezeRetry {
		t.Fatalf("outcome = %v, want retry", got)
	}
	pruneAll(m)
	if got := tr.TryFreeze(b); got != freezeDone {
		t.Fatalf("outcome after GC = %v, want done", got)
	}
	if b.State() != storage.StateFrozen {
		t.Fatalf("state = %s", b.State())
	}
}

func TestTryFreezePreemptedByWriter(t *testing.T) {
	m, table := testEnv(t)
	fillBlocks(t, m, table, 1, 10, 0)
	pruneAll(m)
	b := table.Blocks()[0]
	b.SetState(storage.StateCooling)
	// A user write preempts cooling back to hot.
	b.MarkHot()
	tr := New(m, nil, NewObserver(), DefaultConfig())
	if got := tr.TryFreeze(b); got != freezePreempted {
		t.Fatalf("outcome = %v, want preempted", got)
	}
	if b.State() != storage.StateHot {
		t.Fatalf("state = %s", b.State())
	}
}

func TestWriteAfterFreezeThaws(t *testing.T) {
	m, table := testEnv(t)
	fillBlocks(t, m, table, 1, 20, 0)
	freezeViaPipeline(t, m, table, ModeGather)
	b := table.Blocks()[0]
	if b.State() != storage.StateFrozen {
		t.Fatalf("state = %s", b.State())
	}
	// Find a slot and update it: the block must go hot, and the update must
	// be readable (entry now points at the hot arena again).
	var slot storage.TupleSlot
	b.IterateAllocated(func(s uint32) bool {
		slot = storage.NewTupleSlot(b.ID, s)
		return false
	})
	tx := m.Begin()
	u := storage.MustProjection(table.Layout(), []storage.ColumnID{1}).NewRow()
	u.SetVarlen(0, []byte("freshly-written-after-thaw"))
	if err := table.Update(tx, slot, u); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx, nil)
	if b.State() != storage.StateHot {
		t.Fatalf("state after write = %s", b.State())
	}
	tx2 := m.Begin()
	out := table.AllColumnsProjection().NewRow()
	found, _ := table.Select(tx2, slot, out)
	m.Commit(tx2, nil)
	if !found || string(out.Varlen(1)) != "freshly-written-after-thaw" {
		t.Fatalf("post-thaw read: %q", out.Varlen(1))
	}
}

func TestObserverSweep(t *testing.T) {
	m, table := testEnv(t)
	obs := NewObserver()
	obs.Watch(table)
	now := time.Unix(1000, 0)
	obs.SetClock(func() time.Time { return now })

	fillBlocks(t, m, table, 1, 10, 0)
	b := table.Blocks()[0]
	obs.ObserveModification(storage.NewTupleSlot(b.ID, 0), storage.KindInsert, 1)

	// Too recent: nothing cold.
	if groups := obs.Sweep(time.Second); len(groups) != 0 {
		t.Fatalf("swept too early: %v", groups)
	}
	now = now.Add(2 * time.Second)
	groups := obs.Sweep(time.Second)
	if len(groups) != 1 || len(groups[0].Blocks) == 0 {
		t.Fatalf("sweep found %v", groups)
	}
	// Swept blocks are not re-reported while unmodified.
	if groups := obs.Sweep(time.Second); len(groups) != 0 {
		t.Fatal("block re-swept without modification")
	}
	// A new modification resets the clock.
	obs.ObserveModification(storage.NewTupleSlot(b.ID, 1), storage.KindUpdate, 2)
	if groups := obs.Sweep(time.Second); len(groups) != 0 {
		t.Fatal("swept immediately after modification")
	}
}

func TestObserverNeverModifiedBlocksCool(t *testing.T) {
	m, table := testEnv(t)
	obs := NewObserver()
	obs.Watch(table)
	now := time.Unix(1000, 0)
	obs.SetClock(func() time.Time { return now })
	fillBlocks(t, m, table, 1, 5, 0)
	// First sweep registers firstSeen; second (past threshold) reports.
	if groups := obs.Sweep(time.Second); len(groups) != 0 {
		t.Fatal("cold on first sight")
	}
	now = now.Add(2 * time.Second)
	if groups := obs.Sweep(time.Second); len(groups) != 1 {
		t.Fatal("bulk-loaded block never cooled")
	}
}

func TestFrozenValidityAndNullCounts(t *testing.T) {
	m, table := testEnv(t)
	tx := m.Begin()
	proj := storage.MustProjection(table.Layout(), []storage.ColumnID{0}) // varlen col 1 omitted -> null
	for i := 0; i < 50; i++ {
		row := proj.NewRow()
		row.SetInt64(0, int64(i))
		if _, err := table.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
	}
	m.Commit(tx, nil)
	freezeViaPipeline(t, m, table, ModeGather)
	b := table.Blocks()[0]
	if b.State() != storage.StateFrozen {
		t.Fatalf("state = %s", b.State())
	}
	if b.NullCount(0) != 0 || b.NullCount(1) != 50 {
		t.Fatalf("null counts: %d %d", b.NullCount(0), b.NullCount(1))
	}
	bm := b.FrozenValidity(1)
	if bm.CountOnes(b.FrozenRows()) != 0 {
		t.Fatal("null column has valid bits")
	}
}
