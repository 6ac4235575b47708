package transform

import (
	"sync"
	"sync/atomic"
	"time"

	"mainline/internal/core"
	"mainline/internal/gc"
	metrics "mainline/internal/obs"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// Config tunes the transformation pipeline.
type Config struct {
	// Threshold is how long a block must go unmodified before it is
	// considered cold (the paper's aggressive setting is 10 ms).
	Threshold time.Duration
	// GroupSize caps blocks per compaction group (Figure 14's knob);
	// 0 means all cold blocks of a table form one group.
	GroupSize int
	// Mode selects plain gather or dictionary compression.
	Mode Mode
	// Optimal enables the exhaustive partial-block selection; the
	// approximate algorithm is the default (§4.3).
	Optimal bool
}

// DefaultConfig mirrors the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{Threshold: 10 * time.Millisecond, GroupSize: 50, Mode: ModeGather}
}

// Stats counts pipeline work since creation.
type Stats struct {
	GroupsCompacted int64 `metric:"mainline_engine_transform_groups_compacted_total"`
	TuplesMoved     int64 `metric:"mainline_engine_transform_tuples_moved_total"`
	BlocksFrozen    int64 `metric:"mainline_engine_transform_frozen_blocks_total"`
	BlocksRecycled  int64 `metric:"mainline_engine_transform_recycled_blocks_total"`
	CompactionFails int64 `metric:"mainline_engine_transform_compaction_fails_total"`
	FreezeRetries   int64 `metric:"mainline_engine_transform_freeze_retries_total"`
	Preemptions     int64 `metric:"mainline_engine_transform_preemptions_total"`
}

// Transformer drives blocks from hot to frozen: it sweeps the observer for
// cold groups, compacts them transactionally, waits for the GC to clear the
// compaction's versions, then freezes block by block.
type Transformer struct {
	mgr *txn.Manager
	gc  *gc.GarbageCollector
	obs *Observer
	cfg Config

	mu sync.Mutex
	// cooling tracks blocks between compaction and freeze, with their table.
	cooling []coolingEntry

	stats struct {
		groupsCompacted atomic.Int64
		tuplesMoved     atomic.Int64
		blocksFrozen    atomic.Int64
		blocksRecycled  atomic.Int64
		compactionFails atomic.Int64
		freezeRetries   atomic.Int64
		preemptions     atomic.Int64
	}

	stopCh  chan struct{}
	doneCh  chan struct{}
	started atomic.Bool

	// duty, when set, accounts pipeline-pass busy time (the merge
	// interference signal the maintenance scheduler will watch).
	duty *metrics.Duty
}

// SetDuty installs the duty meter (nil disables). Call before Start.
func (tr *Transformer) SetDuty(d *metrics.Duty) { tr.duty = d }

type coolingEntry struct {
	table *core.DataTable
	block *storage.Block
}

// New creates a transformer. collector may be nil (tests, synchronous
// benches); block recycling then happens immediately instead of epoch-
// deferred.
func New(mgr *txn.Manager, collector *gc.GarbageCollector, obs *Observer, cfg Config) *Transformer {
	return &Transformer{mgr: mgr, gc: collector, obs: obs, cfg: cfg}
}

// Observer returns the transformer's access observer.
func (tr *Transformer) Observer() *Observer { return tr.obs }

// Stats snapshots pipeline counters.
func (tr *Transformer) Stats() Stats {
	return Stats{
		GroupsCompacted: tr.stats.groupsCompacted.Load(),
		TuplesMoved:     tr.stats.tuplesMoved.Load(),
		BlocksFrozen:    tr.stats.blocksFrozen.Load(),
		BlocksRecycled:  tr.stats.blocksRecycled.Load(),
		CompactionFails: tr.stats.compactionFails.Load(),
		FreezeRetries:   tr.stats.freezeRetries.Load(),
		Preemptions:     tr.stats.preemptions.Load(),
	}
}

// RunOnce performs one pipeline pass: sweep for new cold groups, compact
// them, and attempt to freeze cooling blocks. Returns the number of blocks
// frozen this pass.
func (tr *Transformer) RunOnce() int {
	defer tr.duty.Track()()
	for _, group := range tr.obs.Sweep(tr.cfg.Threshold) {
		tr.CompactAndQueue(group.Table, group.Blocks)
	}
	return tr.FreezePass()
}

// ForcePass is RunOnce with a zero cold threshold: every hot block is
// treated as cold immediately. Benchmarks and bulk-freeze paths use it to
// reach a fully frozen database deterministically.
func (tr *Transformer) ForcePass() int {
	for _, group := range tr.obs.Sweep(0) {
		tr.CompactAndQueue(group.Table, group.Blocks)
	}
	return tr.FreezePass()
}

// CompactAndQueue runs Phase 1 over the given cold blocks of one table,
// splitting them into compaction groups of the configured size, and queues
// the surviving blocks for the gather phase.
func (tr *Transformer) CompactAndQueue(table *core.DataTable, blocks []*storage.Block) {
	groupSize := tr.cfg.GroupSize
	if groupSize <= 0 || groupSize > len(blocks) {
		groupSize = len(blocks)
	}
	for start := 0; start < len(blocks); start += groupSize {
		end := start + groupSize
		if end > len(blocks) {
			end = len(blocks)
		}
		group := blocks[start:end]
		res, err := CompactGroup(tr.mgr, table, group, tr.cfg.Optimal)
		if err != nil {
			// A user transaction won the conflict; the blocks stay hot and
			// the observer will re-report them once they cool again.
			tr.stats.compactionFails.Add(1)
			continue
		}
		tr.stats.groupsCompacted.Add(1)
		tr.stats.tuplesMoved.Add(int64(res.Moved))
		tr.recycle(table, res.EmptiedBlocks)

		tr.mu.Lock()
		if res.Plan != nil {
			for _, b := range res.Plan.Full {
				tr.cooling = append(tr.cooling, coolingEntry{table, b})
			}
			if res.Plan.Partial != nil {
				tr.cooling = append(tr.cooling, coolingEntry{table, res.Plan.Partial})
			}
		}
		tr.mu.Unlock()
	}
}

// recycle returns emptied blocks to the system once no transaction can
// still read their old tuples (epoch-deferred through the GC).
func (tr *Transformer) recycle(table *core.DataTable, blocks []*storage.Block) {
	if len(blocks) == 0 {
		return
	}
	free := func() {
		for _, b := range blocks {
			table.RemoveBlock(b)
			tr.stats.blocksRecycled.Add(1)
		}
	}
	if tr.gc != nil {
		tr.gc.RegisterAction(free)
	} else {
		free()
	}
}

// FreezePass tries to move every cooling block to frozen; blocks whose
// versions are still visible stay queued, preempted blocks (flipped back to
// hot by a user write) are dropped back to the observer's care.
func (tr *Transformer) FreezePass() int {
	tr.mu.Lock()
	pending := tr.cooling
	tr.cooling = nil
	tr.mu.Unlock()

	frozen := 0
	var retry []coolingEntry
	for _, e := range pending {
		switch tr.TryFreeze(e.block) {
		case freezeDone:
			frozen++
		case freezeRetry:
			retry = append(retry, e)
		case freezePreempted:
			// Block went hot again; the observer re-detects it later.
		}
	}
	tr.mu.Lock()
	tr.cooling = append(tr.cooling, retry...)
	tr.mu.Unlock()
	return frozen
}

type freezeOutcome int

const (
	freezeDone freezeOutcome = iota
	freezeRetry
	freezePreempted
)

// TryFreeze runs the Phase-2 entry protocol on one cooling block (§4.3):
// the block must still be cooling (a user transaction may have preempted by
// CASing it back to hot) and its version column must be clear — any version
// implies a transaction overlapping the compaction transaction whose
// records the GC cannot have pruned yet, which is exactly the evidence the
// cooling sentinel exists to catch (Figure 9). Only then does the block
// move to freezing for the gather critical section.
func (tr *Transformer) TryFreeze(block *storage.Block) freezeOutcome {
	if block.State() != storage.StateCooling {
		tr.stats.preemptions.Add(1)
		return freezePreempted
	}
	if block.HasActiveVersions() {
		// Versions linger: the compaction transaction's records (or a
		// racing writer's) have not been unlinked yet. Wait for the GC.
		tr.stats.freezeRetries.Add(1)
		return freezeRetry
	}
	if !block.CASState(storage.StateCooling, storage.StateFreezing) {
		tr.stats.preemptions.Add(1)
		return freezePreempted
	}
	// Exclusive: perform the gather. A failure here (should not happen on a
	// compacted block) returns the block to the hot state.
	var d txn.Deferrer
	if tr.gc != nil {
		d = tr.gc
	}
	if err := GatherBlock(block, tr.cfg.Mode, d); err != nil {
		block.SetState(storage.StateHot)
		tr.stats.compactionFails.Add(1)
		return freezePreempted
	}
	tr.stats.blocksFrozen.Add(1)
	return freezeDone
}

// CoolingCount reports blocks queued between compaction and freeze.
func (tr *Transformer) CoolingCount() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.cooling)
}

// Start launches the background pipeline with the given pass period.
func (tr *Transformer) Start(period time.Duration) {
	if tr.started.Swap(true) {
		return
	}
	tr.stopCh = make(chan struct{})
	tr.doneCh = make(chan struct{})
	go func() {
		defer close(tr.doneCh)
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-tr.stopCh:
				return
			case <-ticker.C:
				tr.RunOnce()
			}
		}
	}()
}

// Stop halts the background pipeline.
func (tr *Transformer) Stop() {
	if !tr.started.Swap(false) {
		return
	}
	close(tr.stopCh)
	<-tr.doneCh
}
