package exec_test

// CH-benCHmark-shaped HTAP stress for the parallel aggregation operator:
// transactional writers churn a mixed hot/frozen table (updates thaw the
// frozen block underfoot, a freezer periodically re-freezes it) while
// every comparison runs a 4-worker parallel aggregation and a
// tuple-at-a-time oracle inside ONE snapshot and demands bit-identical
// results — the morsel executor must be snapshot-consistent no matter
// which worker scans which block in which state.
//
// Two contact modes, mirroring the scan stress suite:
//
//   - full-contact (default): writers and GC run continuously under the
//     aggregations. Not TSan-clean by design (the engine's in-place
//     update races at tuple byte level and repairs through the chain).
//   - phased (race detector active): writers are joined before every
//     comparison, giving TSan a happens-before-ordered schedule over the
//     same state transitions, including periodic refreezes.

import (
	"fmt"
	"sync"
	"testing"

	"mainline/internal/core"
	"mainline/internal/exec"
	"mainline/internal/gc"
	"mainline/internal/raceflag"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
)

func TestAggregateHTAPStress(t *testing.T) {
	reg := storage.NewRegistry()
	m := txn.NewManager(reg)
	layout, err := storage.NewBlockLayout([]storage.AttrDef{
		storage.FixedAttr(8), // id
		storage.FixedAttr(8), // grp (stable group key)
		storage.FixedAttr(8), // val (churned by writers)
		storage.VarlenAttr(), // tag (churned by writers)
	})
	if err != nil {
		t.Fatal(err)
	}
	table := core.NewDataTable(reg, layout, 1, "htap")

	const rows = 1024
	const groups = 16
	{
		tx := m.Begin()
		row := table.AllColumnsProjection().NewRow()
		for id := int64(0); id < rows; id++ {
			row.Reset()
			row.SetInt64(0, id)
			row.SetInt64(1, id%groups)
			row.SetInt64(2, id)
			row.SetVarlen(3, []byte(fmt.Sprintf("tag-%03d", id%37)))
			if _, err := table.Insert(tx, row); err != nil {
				t.Fatal(err)
			}
			if id == rows/2-1 {
				m.Commit(tx, nil)
				sealTail(table)
				tx = m.Begin()
			}
		}
		m.Commit(tx, nil)
	}
	freeze(t, m, table.Blocks()[:1], transform.ModeDictionary)

	// Slot map for writers (one snapshot; slots are stable identities).
	slots := make(map[int64]storage.TupleSlot, rows)
	{
		tx := m.Begin()
		_ = table.Scan(tx, table.AllColumnsProjection(), func(slot storage.TupleSlot, row *storage.ProjectedRow) bool {
			slots[row.Int64(0)] = slot
			return true
		})
		m.Commit(tx, nil)
	}

	const writers = 4
	writerPass := func(w int, seed uint64, iters int, stop <-chan struct{}) {
		proj, _ := storage.NewProjection(layout, []storage.ColumnID{2, 3})
		rng := seed
		base := int64(w) * (rows / writers)
		for i := 0; iters == 0 || i < iters; i++ {
			if stop != nil {
				select {
				case <-stop:
					return
				default:
				}
			}
			rng = rng*6364136223846793005 + 1
			id := base + int64(rng%(rows/writers))
			tx := m.Begin()
			up := proj.NewRow()
			up.SetInt64(0, int64(rng%100000))
			up.SetVarlen(1, []byte(fmt.Sprintf("w%d-%d", w, rng%53)))
			if err := table.Update(tx, slots[id], up); err != nil {
				m.Abort(tx)
				continue
			}
			m.Commit(tx, nil)
		}
	}

	aggs := []exec.AggSpec{
		{Op: exec.OpCount, Col: -1},
		{Op: exec.OpSum, Col: 2},
		{Op: exec.OpMin, Col: 2},
		{Op: exec.OpMax, Col: 2},
		{Op: exec.OpCount, Col: 3},
	}
	groupBy := []storage.ColumnID{1}
	var counters exec.Counters

	// compare runs oracle and parallel aggregation in one snapshot.
	compare := func(iter int) {
		tx := m.Begin()
		defer m.Commit(tx, nil)
		want := oracleAgg(t, table, tx, groupBy, aggs, nil, nil)
		res, err := exec.Aggregate(tx, &exec.AggPlan{
			Table: table, GroupBy: groupBy, Aggs: aggs, Workers: 4,
		}, &counters)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if res.Len() != groups {
			t.Fatalf("iter %d: %d groups, want %d", iter, res.Len(), groups)
		}
		var total int64
		for r := 0; r < res.Len(); r++ {
			key := fmt.Sprintf("i:%d|", res.GroupInt(r, 0))
			st := want[key]
			if st == nil {
				t.Fatalf("iter %d: group %q not in oracle", iter, key)
			}
			for a := range aggs {
				if res.Count(r, a) != st.cnt[a] {
					t.Fatalf("iter %d group %q agg %d: count %d want %d (snapshot torn?)",
						iter, key, a, res.Count(r, a), st.cnt[a])
				}
			}
			if res.Int(r, 1) != st.sumI[1] || res.Int(r, 2) != st.minI[2] || res.Int(r, 3) != st.maxI[3] {
				t.Fatalf("iter %d group %q: sum/min/max diverged from tuple oracle", iter, key)
			}
			total += res.Count(r, 0)
		}
		if total != rows {
			t.Fatalf("iter %d: aggregated %d rows, want %d — rows lost or duplicated across morsels", iter, total, rows)
		}
	}

	collector := gc.New(m)
	refreeze := func() {
		b := table.Blocks()[0]
		if b.State() == storage.StateHot && !b.HasActiveVersions() {
			b.SetState(storage.StateFreezing)
			if err := transform.GatherBlock(b, transform.ModeDictionary, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	if raceflag.Enabled {
		// Phased mode for TSan: writers are joined before every
		// comparison, so TSan sees a happens-before-ordered schedule. The
		// engine's in-place update is deliberately racy at tuple byte
		// level (torn reads are repaired through the version chain), so
		// the full-contact mode below is not TSan-clean by design.
		for iter := 0; iter < 10; iter++ {
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					writerPass(w, uint64(iter*writers+w)*2654435761+99, 40, nil)
				}(w)
			}
			wg.Wait()
			collector.RunOnce()
			collector.RunOnce()
			if iter%3 == 2 {
				refreeze()
			}
			compare(iter)
		}
		return
	}

	// Full-contact mode: writers, GC, and a freezer churn continuously.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		wg.Wait()
	})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			writerPass(w, uint64(w)*2654435761+99, 0, stop)
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			collector.RunOnce()
			if i%16 == 15 {
				b := table.Blocks()[0]
				if b.State() == storage.StateHot && !b.HasActiveVersions() {
					b.SetState(storage.StateFreezing)
					if transform.GatherBlock(b, transform.ModeDictionary, nil) != nil {
						return
					}
				}
			}
		}
	}()
	for iter := 0; iter < 40; iter++ {
		compare(iter)
	}
}
