package mainline

import (
	"time"

	"mainline/internal/tier"
)

// Engine-level wiring of the cold storage tier (internal/tier): the
// background eviction sweeper and the administrative eviction surface.
// The tier itself is configured with WithObjectStore /
// WithObjectStoreBackend.

// startTierSweeper launches the background eviction loop: every interval
// it ages each frozen resident block and demotes those frozen for the
// configured number of consecutive sweeps. A sweep error (store
// unreachable, disk full) leaves the remaining blocks resident and is
// retried next interval — eviction is an optimization, never required
// for correctness.
func (e *Engine) startTierSweeper(interval time.Duration) {
	e.tierStop = make(chan struct{})
	e.tierDone = make(chan struct{})
	go func() {
		defer close(e.tierDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-e.tierStop:
				return
			case <-t.C:
				_, _ = e.tierSweepOnce(false)
			}
		}
	}()
}

// stopTierSweeper halts the background eviction loop (idempotent, no-op
// when it never started).
func (e *Engine) stopTierSweeper() {
	if e.tierStop == nil {
		return
	}
	e.tierStopOnce.Do(func() {
		close(e.tierStop)
		<-e.tierDone
	})
}

// tierSweepOnce runs one eviction sweep over every table. force ignores
// sweep ages. The first store error aborts the sweep.
func (e *Engine) tierSweepOnce(force bool) (int, error) {
	total := 0
	for _, t := range e.cat.Tables() {
		n, err := e.tier.SweepBlocks(t.Blocks(), t.FrozenBatch, force)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TierSweep runs one synchronous age-based eviction sweep over every
// table and reports blocks evicted — the manual drive for engines
// without Background (tests, benchmarks). Returns ErrNoObjectStore
// without an object store.
func (a Admin) TierSweep() (int, error) {
	if a.eng.tier == nil {
		return 0, ErrNoObjectStore
	}
	return a.eng.tierSweepOnce(false)
}

// EvictAll force-evicts every currently frozen resident block to the
// object store, regardless of sweep age, and reports how many were
// demoted. Blocks that are hot, cooling, or still carry version chains
// are skipped — freeze first (FreezeAll) for a fully cold database.
// Returns ErrNoObjectStore without an object store.
func (a Admin) EvictAll() (int, error) {
	if a.eng.tier == nil {
		return 0, ErrNoObjectStore
	}
	return a.eng.tierSweepOnce(true)
}

// Tier returns the cold-tier manager (nil without an object store) —
// the seam tier tests and benchmarks program against directly.
func (a Admin) Tier() *tier.Manager { return a.eng.tier }
