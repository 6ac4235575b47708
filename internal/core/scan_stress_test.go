package core_test

// Equivalence stress for the batch scan: writers churn a mixed hot/frozen
// table (thawing the frozen block underfoot) while readers assert that
// the batch path and the per-slot Select reference observe the identical
// visible set within one snapshot.
//
// Two contact modes:
//
//   - full-contact (default): writers run continuously, overlapping
//     in-flight updates with the scans — the mode that exposed the
//     Frozen->Hot thaw race MarkHot's Thawing state now closes. The
//     engine's in-place update is deliberately racy at tuple byte level
//     (torn reads are repaired through the version chain), so this mode
//     is not TSan-clean by design.
//   - phased (race detector active): writers are joined before every
//     comparison, giving the race detector a happens-before-ordered
//     schedule over the same mixed hot/frozen state transitions,
//     including periodic refreezes.

import (
	"fmt"
	"sync"
	"testing"

	"mainline/internal/core"
	"mainline/internal/core/coretest"
	"mainline/internal/gc"
	"mainline/internal/raceflag"
	"mainline/internal/storage"
	"mainline/internal/transform"
)

func TestScanEquivalenceUnderConcurrentWriters(t *testing.T) {
	m, table := scanEnv(t)
	const rows = 512
	insertN(t, m, table, 0, rows, 0)
	sealBlock(table)
	insertN(t, m, table, rows, 2*rows, 0)
	freezeBlocks(t, m, table.Blocks()[:1], transform.ModeGather)

	slots := make(map[int64]storage.TupleSlot, 2*rows)
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
		base := int64(w) * (2 * rows / writers)
		proj, _ := storage.NewProjection(table.Layout(), []storage.ColumnID{1})
		rng := seed
		for i := 0; iters == 0 || i < iters; i++ {
			if stop != nil {
				select {
				case <-stop:
					return
				default:
				}
			}
			rng = rng*6364136223846793005 + 1
			id := base + int64(rng%(2*uint64(rows)/writers))
			tx := m.Begin()
			up := proj.NewRow()
			up.SetVarlen(0, []byte(fmt.Sprintf("w%d-%d", w, rng%997)))
			if err := table.Update(tx, slots[id], up); err != nil {
				m.Abort(tx)
				continue
			}
			m.Commit(tx, nil)
		}
	}

	compare := func(iter int) {
		tx := m.Begin()
		selectSeen := make(map[int64]string)
		if err := coretest.SelectScan(table, tx, table.AllColumnsProjection(), func(_ storage.TupleSlot, row *storage.ProjectedRow) bool {
			selectSeen[row.Int64(0)] = string(row.Varlen(1))
			return true
		}); err != nil {
			m.Commit(tx, nil)
			t.Fatal(err)
		}
		batchSeen := make(map[int64]string)
		_ = table.ScanBatches(tx, nil, nil, func(b *core.Batch) bool {
			for i := 0; i < b.Len(); i++ {
				batchSeen[b.Int64(0, i)] = string(b.Bytes(1, i))
			}
			return true
		})
		if len(selectSeen) != 2*rows || len(batchSeen) != 2*rows {
			m.Commit(tx, nil)
			t.Fatalf("iter %d: visible set sizes: select %d batch %d want %d", iter, len(selectSeen), len(batchSeen), 2*rows)
		}
		for id, v := range selectSeen {
			if batchSeen[id] != v {
				// Gather evidence with the reader still active: the chain
				// cannot lose records this snapshot needs.
				slot := slots[id]
				blk := table.Registry().BlockFor(slot)
				var chain string
				for rec := blk.VersionPtr(slot.Offset()); rec != nil; rec = rec.Next() {
					val := ""
					if rec.Delta != nil {
						val = string(rec.Delta.Varlen(0))
					}
					chain += fmt.Sprintf("[%v ts=%x delta=%q] ", rec.Kind, rec.Timestamp(), val)
				}
				m.Commit(tx, nil)
				t.Fatalf("iter %d: id %d: select %q batch %q\nstartTs=%x blockState=%v chain=%s",
					iter, id, v, batchSeen[id], tx.StartTs(), blk.State(), chain)
			}
		}
		m.Commit(tx, nil)
	}

	collector := gc.New(m)
	if raceflag.Enabled {
		// Phased: run writer passes to completion, then compare; refreeze
		// the first block periodically so scans keep crossing the
		// frozen/thawed boundary. Joining the writers before every
		// comparison orders every byte access for TSan: the engine's
		// in-place update with torn-read repair is deliberately racy at
		// tuple byte level (see core.DataTable.Update and the CI race-job
		// note), so the full-contact variant — readers overlapping
		// in-flight writers on the same slots — cannot be TSan-clean by
		// design.
		for iter := 0; iter < 12; iter++ {
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					writerPass(w, uint64(iter*writers+w)*2654435761+12345, 40, nil)
				}(w)
			}
			wg.Wait()
			collector.RunOnce()
			collector.RunOnce()
			if iter%4 == 3 {
				b := table.Blocks()[0]
				if b.State() == storage.StateHot && !b.HasActiveVersions() {
					b.SetState(storage.StateFreezing)
					if err := transform.GatherBlock(b, transform.ModeGather); err != nil {
						t.Fatal(err)
					}
				}
			}
			compare(iter)
		}
		return
	}

	// Full-contact: writers and GC run continuously under the scans.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	t.Cleanup(func() { // also reached via t.Fatalf in compare
		close(stop)
		wg.Wait()
	})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			writerPass(w, uint64(w)*2654435761+12345, 0, stop)
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			collector.RunOnce()
		}
	}()
	for iter := 0; iter < 50; iter++ {
		compare(iter)
	}
}
