// Package exec is the analytical operator layer above the batch scan: a
// vectorized hash GROUP-BY aggregation operator, a dictionary-aware hash
// join, and a morsel-driven parallel executor that fans block-granular
// morsels of ScanBatches across a worker pool (Leis et al.'s morsel model,
// scaled down to block granularity — the block is already the table's unit
// of state, freezing, and zone-map pruning).
//
// Operators run inside an ordinary transaction and see exactly the
// snapshot any tuple-at-a-time scan in the same transaction would see:
// workers share one read-only transaction handle (the read path touches
// only its immutable timestamps) and enumerate blocks from a single
// Blocks() snapshot, so visiting every block exactly once — in any order,
// on any worker — is equivalent to one serial ScanBatches pass.
package exec

import (
	"sync/atomic"

	"mainline/internal/obs"
)

// Counters accumulates executor statistics. One instance lives in the
// engine and is shared by every query; all fields are updated atomically.
type Counters struct {
	queries   atomic.Int64
	morsels   atomic.Int64
	partials  atomic.Int64
	workers   atomic.Int64
	rows      atomic.Int64
	dictFast  atomic.Int64
	joinBuild atomic.Int64
	joinProbe atomic.Int64

	// latency, when set, observes each Aggregate/HashJoin end to end
	// (compile through merge). Install before concurrent queries.
	latency *obs.Histogram
}

// SetLatency installs the per-query duration histogram (nil disables).
func (c *Counters) SetLatency(h *obs.Histogram) { c.latency = h }

// Stats is a point-in-time snapshot of Counters.
type Stats struct {
	// Queries is the number of Aggregate/HashJoin executions started.
	Queries int64 `metric:"mainline_engine_exec_queries_total"`
	// MorselsDispatched counts block-granular morsels handed to workers.
	MorselsDispatched int64 `metric:"mainline_engine_exec_morsels_dispatched_total"`
	// PartialsMerged counts per-worker partial aggregate tables merged
	// into a final result.
	PartialsMerged int64 `metric:"mainline_engine_exec_partials_merged_total"`
	// WorkersLaunched counts worker goroutines launched across queries.
	WorkersLaunched int64 `metric:"mainline_engine_exec_workers_launched_total"`
	// RowsAggregated counts rows accumulated by aggregation operators
	// (post-predicate).
	RowsAggregated int64 `metric:"mainline_engine_exec_rows_aggregated_total"`
	// DictFastBlocks counts frozen blocks aggregated on the dictionary
	// fast path (accumulating on int32 codes, decoding once per code).
	DictFastBlocks int64 `metric:"mainline_engine_exec_dict_fast_blocks_total"`
	// JoinBuildRows and JoinProbeRows count rows consumed by the build
	// and probe sides of hash joins.
	JoinBuildRows int64 `metric:"mainline_engine_exec_join_build_rows_total"`
	JoinProbeRows int64 `metric:"mainline_engine_exec_join_probe_rows_total"`
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Queries:           c.queries.Load(),
		MorselsDispatched: c.morsels.Load(),
		PartialsMerged:    c.partials.Load(),
		WorkersLaunched:   c.workers.Load(),
		RowsAggregated:    c.rows.Load(),
		DictFastBlocks:    c.dictFast.Load(),
		JoinBuildRows:     c.joinBuild.Load(),
		JoinProbeRows:     c.joinProbe.Load(),
	}
}

// discard absorbs counter updates when the caller passes nil Counters.
var discard Counters

func (c *Counters) addQuery()            { c.queries.Add(1) }
func (c *Counters) addMorsel()           { c.morsels.Add(1) }
func (c *Counters) addPartials(n int64)  { c.partials.Add(n) }
func (c *Counters) addWorkers(n int64)   { c.workers.Add(n) }
func (c *Counters) addRows(n int64)      { c.rows.Add(n) }
func (c *Counters) addDictBlock()        { c.dictFast.Add(1) }
func (c *Counters) addJoinBuild(n int64) { c.joinBuild.Add(n) }
func (c *Counters) addJoinProbe(n int64) { c.joinProbe.Add(n) }
