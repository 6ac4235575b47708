package server

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mainline"
)

// handWrittenSeries pins every series /metrics emitted while its lines were
// written by hand, with the Stats field (or Health field, under
// "Health.") that fed it. The tags that now declare the names must keep
// each one, with the same value.
var handWrittenSeries = [][2]string{
	{"mainline_server_sessions", "Server.Sessions"},
	{"mainline_server_sessions_total", "Server.SessionsTotal"},
	{"mainline_server_sessions_rejected_total", "Server.SessionsRejected"},
	{"mainline_server_requests_total", "Server.Requests"},
	{"mainline_server_requests_rejected_total", "Server.RequestsRejected"},
	{"mainline_server_deadline_hits_total", "Server.DeadlineHits"},
	{"mainline_server_txns_reaped_total", "Server.TxnsReaped"},
	{"mainline_server_begin_ops_total", "Server.BeginOps"},
	{"mainline_server_commit_ops_total", "Server.CommitOps"},
	{"mainline_server_abort_ops_total", "Server.AbortOps"},
	{"mainline_server_insert_ops_total", "Server.InsertOps"},
	{"mainline_server_update_ops_total", "Server.UpdateOps"},
	{"mainline_server_delete_ops_total", "Server.DeleteOps"},
	{"mainline_server_select_ops_total", "Server.SelectOps"},
	{"mainline_server_index_read_ops_total", "Server.IndexReadOps"},
	{"mainline_server_doget_ops_total", "Server.DoGetOps"},
	{"mainline_server_doput_ops_total", "Server.DoPutOps"},
	{"mainline_server_bytes_streamed_total", "Server.BytesStreamed"},
	{"mainline_server_bytes_ingested_total", "Server.BytesIngested"},
	{"mainline_server_rows_streamed_total", "Server.RowsStreamed"},
	{"mainline_server_rows_ingested_total", "Server.RowsIngested"},
	{"mainline_server_draining", "Server.Draining"},
	{"mainline_engine_active_txns", "ActiveTxns"},
	{"mainline_engine_scan_frozen_blocks_total", "Scan.BlocksFrozen"},
	{"mainline_engine_scan_versioned_blocks_total", "Scan.BlocksVersioned"},
	{"mainline_engine_scan_pruned_blocks_total", "Scan.BlocksPruned"},
	{"mainline_engine_scan_cold_blocks_total", "Scan.BlocksCold"},
	{"mainline_engine_scan_pruned_cold_blocks_total", "Scan.BlocksPrunedCold"},
	{"mainline_engine_scan_tuples_total", "Scan.TuplesEmitted"},
	{"mainline_engine_transform_frozen_blocks_total", "Transform.BlocksFrozen"},
	{"mainline_engine_index_entries", "Index.Entries"},
	{"mainline_engine_index_lookups_total", "Index.Lookups"},
	{"mainline_engine_index_range_scans_total", "Index.RangeScans"},
	{"mainline_engine_gc_unlinked_total", "GC.Unlinked"},
	{"mainline_engine_gc_deallocated_total", "GC.Deallocated"},
	{"mainline_engine_gc_watermark_lag", "GC.WatermarkLag"},
	{"mainline_engine_wal_truncation_lag", "Health.WALTruncationLag"},
	{"mainline_engine_degraded", "Health.Degraded"},
	{"mainline_engine_wal_txns_total", "WAL.Txns"},
	{"mainline_engine_wal_bytes_total", "WAL.Bytes"},
	{"mainline_engine_wal_syncs_total", "WAL.Syncs"},
	{"mainline_engine_checkpoints_taken_total", "Checkpoint.Taken"},
	{"mainline_engine_checkpoints_failed_total", "Checkpoint.Failed"},
	{"mainline_engine_tier_evictions_total", "Tier.Evictions"},
	{"mainline_engine_tier_rethaws_total", "Tier.Rethaws"},
	{"mainline_engine_tier_fetches_total", "Tier.Fetches"},
	{"mainline_engine_tier_cache_hits_total", "Tier.CacheHits"},
	{"mainline_engine_tier_cache_misses_total", "Tier.CacheMisses"},
	{"mainline_engine_tier_cache_evictions_total", "Tier.CacheEvictions"},
	{"mainline_engine_tier_cache_bytes", "Tier.CacheBytes"},
	{"mainline_engine_tier_bytes_uploaded_total", "Tier.BytesUploaded"},
	{"mainline_engine_tier_bytes_fetched_total", "Tier.BytesFetched"},
}

// fieldValue reads the numeric or bool field at a dotted path.
func fieldValue(t *testing.T, v reflect.Value, path string) float64 {
	t.Helper()
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
		if !v.IsValid() {
			t.Fatalf("no field %s", path)
		}
	}
	switch {
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	case v.Kind() == reflect.Bool && v.Bool():
		return 1
	case v.Kind() == reflect.Bool:
		return 0
	}
	t.Fatalf("field %s is a %s", path, v.Type())
	return 0
}

func TestMetricsMatchStats(t *testing.T) {
	dir := t.TempDir()
	eng, srv, addr := startServerOpts(t, Config{HTTPAddr: "127.0.0.1:0"},
		mainline.WithDataDir(filepath.Join(dir, "data")),
		mainline.WithObjectStore(filepath.Join(dir, "obj")))
	driveWorkload(t, addr)
	// Give the WAL, checkpoint, tier and scan series values other than
	// zero.
	eng.FlushLog()
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eng.FreezeAll(10)
	if _, err := eng.Admin().EvictAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.View(func(tx *mainline.Txn) error {
		_, err := eng.Table("obsitems").CountVisible(tx)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	body, code := httpGet(t, "http://"+srv.HTTPAddr()+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	st, h := eng.Stats(), eng.Health()
	series, types := parseProm(t, body)
	got := make(map[string]float64)
	for _, s := range series {
		if s.labels == "" {
			got[s.name] = s.value
		}
		fam := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(s.name, suf); types[f] == "histogram" {
				fam = f
			}
		}
		if types[fam] == "" {
			t.Errorf("%s: sample without a # TYPE", s.name)
		}
	}
	for _, p := range handWrittenSeries {
		name, path := p[0], p[1]
		var want float64
		if field, ok := strings.CutPrefix(path, "Health."); ok {
			want = fieldValue(t, reflect.ValueOf(h), field)
		} else {
			want = fieldValue(t, reflect.ValueOf(st), path)
		}
		v, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: missing from /metrics", name)
		case v != want:
			t.Errorf("%s = %g, want %s = %g", name, v, path, want)
		}
	}
	for _, path := range []string{"Tier.Evictions", "Checkpoint.Taken", "WAL.Txns", "Server.CommitOps", "Scan.BlocksCold"} {
		if fieldValue(t, reflect.ValueOf(st), path) == 0 {
			t.Errorf("%s is 0 after the driven workload", path)
		}
	}
}

// TestStatsFieldsTagged requires every numeric or bool field of Stats
// (its sub-structs included) and HealthStats to declare its series name
// in a metric tag, or to opt out with "-", and no two fields to declare
// the same name. Enabled fields gate their struct and are not series.
func TestStatsFieldsTagged(t *testing.T) {
	seen := make(map[string]string)
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, where := f.Tag.Get("metric"), path+"."+f.Name
			switch {
			case name == "-":
			case name == "" && f.Type.Kind() == reflect.Struct:
				walk(f.Type, where)
			case name == "":
				if k := f.Type.Kind(); k >= reflect.Bool && k <= reflect.Float64 && f.Name != "Enabled" {
					t.Errorf("%s has no metric tag", where)
				}
			case !strings.HasPrefix(name, "mainline_") || !promNameRe.MatchString(name):
				t.Errorf("%s: bad series name %q", where, name)
			case seen[name] != "":
				t.Errorf("%s and %s both declare %s", seen[name], where, name)
			default:
				seen[name] = where
			}
		}
	}
	walk(reflect.TypeOf(mainline.Stats{}), "Stats")
	walk(reflect.TypeOf(mainline.HealthStats{}), "HealthStats")
}
