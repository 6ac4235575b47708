package main

import (
	"time"

	"mainline"
)

// recordEngineLayers stores the per-layer metrics readable from two
// eng.Stats() snapshots taken around a timed pass in which txns
// transactions were attempted. Metrics of layers the pass did not
// exercise come out 0.
func recordEngineLayers(b *bench, before, after mainline.Stats, txns float64) {
	l := b.layer
	lat := func(f func(mainline.LatencyStats) mainline.HistSnapshot) mainline.HistSnapshot {
		return histDelta(f(after.Latency), f(before.Latency))
	}

	crit := lat(func(s mainline.LatencyStats) mainline.HistSnapshot { return s.CommitCritical })
	commit := lat(func(s mainline.LatencyStats) mainline.HistSnapshot { return s.Commit })
	l["txn.commit_critical_p50_us"] = us(crit, 0.50)
	l["txn.commit_critical_p99_us"] = us(crit, 0.99)
	l["txn.commit_latch_wait_p99_us"] = us(lat(func(s mainline.LatencyStats) mainline.HistSnapshot { return s.CommitLatchWait }), 0.99)
	l["txn.begin_stamp_waits"] = float64(lat(func(s mainline.LatencyStats) mainline.HistSnapshot { return s.BeginStampWait }).Count)

	sync := lat(func(s mainline.LatencyStats) mainline.HistSnapshot { return s.WALSync })
	walTxns := float64(after.WAL.Txns - before.WAL.Txns)
	l["wal.sync_p50_us"] = us(sync, 0.50)
	l["wal.sync_p99_us"] = us(sync, 0.99)
	l["wal.txns_per_sync"] = ratio(walTxns, float64(after.WAL.Syncs-before.WAL.Syncs))
	l["wal.bytes_per_txn"] = ratio(float64(after.WAL.Bytes-before.WAL.Bytes), walTxns)
	if commit.Count > 0 {
		l["wal.durable_wait_p50_us"] = us(commit, 0.50) - us(crit, 0.50)
	}
	l["wal.flush_duty"] = dutyDelta(after.Duty.WALFlush, before.Duty.WALFlush)

	ckpts := float64(after.Checkpoint.Taken - before.Checkpoint.Taken)
	l["checkpoint.count"] = ckpts
	l["checkpoint.duration_p50_ms"] = us(lat(func(s mainline.LatencyStats) mainline.HistSnapshot { return s.Checkpoint }), 0.50) / 1e3
	l["checkpoint.duty"] = dutyDelta(after.Duty.Checkpoint, before.Duty.Checkpoint)

	l["gc.pass_p50_us"] = us(lat(func(s mainline.LatencyStats) mainline.HistSnapshot { return s.GCPass }), 0.50)
	l["gc.duty"] = dutyDelta(after.Duty.GC, before.Duty.GC)
	l["gc.unlinked_per_txn"] = ratio(float64(after.GC.Unlinked-before.GC.Unlinked), txns)

	frozen := float64(after.Transform.BlocksFrozen - before.Transform.BlocksFrozen)
	l["transform.blocks_frozen"] = frozen
	l["transform.tuples_moved"] = float64(after.Transform.TuplesMoved - before.Transform.TuplesMoved)
	l["transform.preemptions_per_freeze"] = ratio(float64(after.Transform.Preemptions-before.Transform.Preemptions), frozen)
	l["transform.duty"] = dutyDelta(after.Duty.Transform, before.Duty.Transform)

	lookups := float64(after.Index.Lookups - before.Index.Lookups)
	reverified := float64(after.Index.SlotsReverified - before.Index.SlotsReverified)
	l["index.lookup_p50_us"] = us(lat(func(s mainline.LatencyStats) mainline.HistSnapshot { return s.IndexLookup }), 0.50)
	l["index.slots_reverified_per_lookup"] = ratio(reverified, lookups)
	l["index.stale_filtered_ratio"] = ratio(float64(after.Index.StaleFiltered-before.Index.StaleFiltered), reverified)

	query := lat(func(s mainline.LatencyStats) mainline.HistSnapshot { return s.Query })
	queries := float64(after.Exec.Queries - before.Exec.Queries)
	l["exec.query_p50_ms"] = us(query, 0.50) / 1e3
	l["exec.morsels_per_query"] = ratio(float64(after.Exec.MorselsDispatched-before.Exec.MorselsDispatched), queries)
	l["exec.rows_per_s"] = ratio(float64(after.Exec.RowsAggregated-before.Exec.RowsAggregated), float64(query.Sum)/1e9)
	l["exec.dict_fast_blocks"] = float64(after.Exec.DictFastBlocks - before.Exec.DictFastBlocks)

	hits := float64(after.Tier.CacheHits - before.Tier.CacheHits)
	misses := float64(after.Tier.CacheMisses - before.Tier.CacheMisses)
	l["tier.evictions"] = float64(after.Tier.Evictions - before.Tier.Evictions)
	l["tier.rethaws"] = float64(after.Tier.Rethaws - before.Tier.Rethaws)
	// An oltp-wire transaction writes one row, so there each rethaw is
	// one transaction that found its block evicted.
	l["tier.rethaw_txn_share"] = ratio(l["tier.rethaws"], txns)
	l["tier.cache_hit_ratio"] = ratio(hits, hits+misses)

	srv := func(f func(mainline.ServerStats) int64) float64 { return float64(f(after.Server) - f(before.Server)) }
	l["server.rejected"] = srv(func(s mainline.ServerStats) int64 { return s.RequestsRejected + s.SessionsRejected + s.DeadlineHits })
	if txns > 0 && after.Server.Enabled {
		l["server.requests_per_txn"] = srv(func(s mainline.ServerStats) int64 { return s.Requests }) / txns
	}
}

// recordSpanLayers stores the client round-trip metrics of the named RPC
// spans and the share of the mean transaction time they cover.
func recordSpanLayers(b *bench, sum map[string]*spanStat, rootName string, rpcs map[string]string) {
	root := sum[rootName]
	if root == nil {
		return
	}
	var rpcPerTxn float64
	for spanName, metric := range rpcs {
		st := sum[spanName]
		if st == nil {
			continue
		}
		b.layer[metric+"_mean"] = st.MeanUs
		b.layer[metric+"_p50"] = st.durs.quantile(0.50) / 1e3
		b.layer[metric+"_p99"] = st.durs.quantile(0.99) / 1e3
		rpcPerTxn += st.MeanUs * float64(st.Count) / float64(root.Count)
	}
	b.layer["server.rpc_sum_over_txn"] = ratio(rpcPerTxn, root.MeanUs)
	b.layer["trace.txn_self_us_mean"] = root.SelfMeanUs
}

// pollMax samples f every interval until stop closes and returns the
// largest value seen.
func pollMax(stop <-chan struct{}, interval time.Duration, f func() float64) float64 {
	best := f()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return best
		case <-t.C:
			if v := f(); v > best {
				best = v
			}
		}
	}
}

// recordOverhead stores the traced pass's change against the untraced
// pass of the same run, in percent (positive = tracing made it worse).
func recordOverhead(b *bench, untraced, traced passResult) {
	b.layer["trace.overhead_throughput_pct"] = 100 * ratio(untraced.throughput-traced.throughput, untraced.throughput)
	b.layer["trace.overhead_p50_pct"] = 100 * ratio(traced.p50-untraced.p50, untraced.p50)
}

// passResult is the end-to-end outcome of one timed pass, as measured on
// this host.
type passResult struct {
	throughput         float64 // units per second
	cpuPerOp           float64 // process CPU microseconds per unit
	p50, p90, p95, p99 float64 // microseconds
	slowdown           float64 // the host's slowdown during the pass (calib.go)
}

// recordPass stores a timed pass's gated metrics, scaled to the reference
// host's speed, its failure accounting, and its figures as measured.
func recordPass(b *bench, res passResult, t loopStats) {
	b.attempted, b.failed = t.attempted, t.failed
	b.e2e["throughput_per_s"] = res.throughput * res.slowdown
	b.e2e["latency_p50_us"] = res.p50 / res.slowdown
	b.e2e["cpu_us_per_op"] = res.cpuPerOp / res.slowdown
	b.layer["host.slowdown"] = res.slowdown
	b.layer["txn.abort_ratio"] = ratio(float64(t.retries+t.failed), float64(t.attempted+t.retries))
	b.layer["e2e.txn_per_s"] = res.throughput
	b.layer["e2e.txn_p50_us"] = res.p50
	b.layer["e2e.txn_p95_us"] = res.p95
	b.layer["e2e.txn_p99_us"] = res.p99
	b.layer["e2e.user_aborts"] = float64(t.userAborts)
	b.report("host_slowdown", "ratio", res.slowdown)
	b.report("txn_per_s", "1/s", res.throughput)
	b.report("txn_p50_us", "us", res.p50)
	b.report("txn_p90_us", "us", res.p90)
	b.report("txn_p95_us", "us", res.p95)
	b.report("txn_p99_us", "us", res.p99)
	b.report("cpu_us_per_txn", "us", res.cpuPerOp)
	b.report("txn_per_s_at_ref", "1/s", b.e2e["throughput_per_s"])
	b.report("txn_p50_us_at_ref", "us", b.e2e["latency_p50_us"])
	b.report("cpu_us_per_txn_at_ref", "us", b.e2e["cpu_us_per_op"])
	b.report("txns", "count", float64(t.attempted))
	b.report("txns_failed", "count", float64(t.failed))
	b.report("tries_retried", "count", float64(t.retries))
	b.report("user_aborts", "count", float64(t.userAborts))
}
