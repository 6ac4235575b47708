package exec_test

// Oracle equivalence for the hash join: results are compared as multisets
// against a nested-loop join over two per-slot Select walks in the same
// snapshot — fixed-width keys (widened across widths), varlen keys with a
// dictionary-encoded probe side, NULL keys (never join), and duplicate
// keys on both sides.

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"mainline/internal/core"
	"mainline/internal/core/coretest"
	"mainline/internal/exec"
	"mainline/internal/gc"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
)

// joinEnv builds a build table (int64 key, varlen name) and a probe table
// (int32 fk, int64 val, varlen tag) sharing a key domain with duplicates
// and NULLs; the probe's first block is frozen with dictionary encoding.
func joinEnv(t *testing.T) (*txn.Manager, *core.DataTable, *core.DataTable) {
	t.Helper()
	reg := storage.NewRegistry()
	mgr := txn.NewManager(reg)
	buildLayout, err := storage.NewBlockLayout([]storage.AttrDef{storage.FixedAttr(8), storage.VarlenAttr()})
	if err != nil {
		t.Fatal(err)
	}
	probeLayout, err := storage.NewBlockLayout([]storage.AttrDef{storage.FixedAttr(4), storage.FixedAttr(8), storage.VarlenAttr()})
	if err != nil {
		t.Fatal(err)
	}
	build := core.NewDataTable(reg, buildLayout, 1, "join-build")
	probe := core.NewDataTable(reg, probeLayout, 2, "join-probe")

	tx := mgr.Begin()
	brow := build.AllColumnsProjection().NewRow()
	for i := int64(0); i < 80; i++ {
		brow.Reset()
		if i%13 == 0 {
			brow.SetNull(0)
		} else {
			brow.SetInt64(0, i%40) // duplicate build keys
		}
		brow.SetVarlen(1, []byte(nameVocab[i%int64(len(nameVocab))]))
		if _, err := build.Insert(tx, brow); err != nil {
			t.Fatal(err)
		}
	}
	prow := probe.AllColumnsProjection().NewRow()
	for i := int64(0); i < 500; i++ {
		prow.Reset()
		if i%17 == 0 {
			prow.SetNull(0)
		} else {
			prow.SetInt32(0, int32(i%60)-10) // misses below 0 and above 39
		}
		prow.SetInt64(1, i*3)
		if i%5 == 0 {
			prow.SetNull(2)
		} else {
			prow.SetVarlen(2, []byte(nameVocab[(i/3)%int64(len(nameVocab))]))
		}
		if _, err := probe.Insert(tx, prow); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Commit(tx, nil)

	sealTail(probe)
	g := gc.New(mgr)
	for i := 0; i < 3; i++ {
		g.RunOnce()
	}
	b := probe.Blocks()[0]
	if b.HasActiveVersions() {
		t.Fatal("cannot freeze probe block")
	}
	b.SetState(storage.StateFreezing)
	if err := transform.GatherBlock(b, transform.ModeDictionary, nil); err != nil {
		t.Fatal(err)
	}
	// Hot probe tail on top of the frozen block.
	tx = mgr.Begin()
	for i := int64(500); i < 620; i++ {
		prow.Reset()
		prow.SetInt32(0, int32(i%40))
		prow.SetInt64(1, i*3)
		prow.SetVarlen(2, []byte(nameVocab[i%int64(len(nameVocab))]))
		if _, err := probe.Insert(tx, prow); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Commit(tx, nil)
	return mgr, build, probe
}

// collectRows materializes one side for the nested-loop oracle through the
// per-slot Select reference: (key canonical, payload canonical).
func collectRows(t *testing.T, table *core.DataTable, tx *txn.Transaction, key storage.ColumnID, payload []storage.ColumnID, isFloat map[int]bool) [][2]string {
	t.Helper()
	layout := table.Layout()
	var out [][2]string
	err := coretest.SelectScan(table, tx, table.AllColumnsProjection(), func(_ storage.TupleSlot, row *storage.ProjectedRow) bool {
		k := canonical(row, layout, key, isFloat[int(key)])
		p := ""
		for _, c := range payload {
			p += canonical(row, layout, c, isFloat[int(c)]) + "|"
		}
		out = append(out, [2]string{k, p})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// joinKeyCanonical renders a JoinRow payload column in canonical form.
func joinRowCanonical(r *exec.JoinRow, layout *storage.BlockLayout, cols []storage.ColumnID, isFloat map[int]bool) string {
	p := ""
	for i, c := range cols {
		switch {
		case r.IsNull(i):
			p += "N|"
		case layout.IsVarlen(c):
			p += "s:" + string(r.Bytes(i)) + "|"
		case isFloat[int(c)]:
			p += fmt.Sprintf("f:%x|", uint64(r.Int(i)))
		default:
			p += fmt.Sprintf("i:%d|", r.Int(i))
		}
	}
	return p
}

func runJoinOracle(t *testing.T, mgr *txn.Manager, plan *exec.JoinPlan, normalizeKey func(string) string) {
	t.Helper()
	tx := mgr.Begin()
	defer mgr.Commit(tx, nil)

	// Oracle: nested loop over canonical rows. Keys compare after
	// normalization (fixed keys of different widths widen to int64).
	bRows := collectRows(t, plan.Build, tx, plan.BuildKey, plan.BuildCols, nil)
	pRows := collectRows(t, plan.Probe, tx, plan.ProbeKey, plan.ProbeCols, nil)
	var want []string
	for _, br := range bRows {
		if br[0] == "N" {
			continue
		}
		for _, pr := range pRows {
			if pr[0] == "N" {
				continue
			}
			if normalizeKey(br[0]) == normalizeKey(pr[0]) {
				want = append(want, br[1]+"//"+pr[1])
			}
		}
	}

	var got []string
	bl, pl := plan.Build.Layout(), plan.Probe.Layout()
	err := exec.HashJoin(tx, plan, nil, func(build, probe *exec.JoinRow) bool {
		got = append(got, joinRowCanonical(build, bl, plan.BuildCols, nil)+"//"+joinRowCanonical(probe, pl, plan.ProbeCols, nil))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != len(got) {
		t.Fatalf("match count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("match %d: got %q want %q", i, got[i], want[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("degenerate oracle: no matches at all")
	}
}

func TestHashJoinFixedKeyOracle(t *testing.T) {
	mgr, build, probe := joinEnv(t)
	// int64 build key joins int32 probe key (widened).
	runJoinOracle(t, mgr, &exec.JoinPlan{
		Build: build, Probe: probe,
		BuildKey: 0, ProbeKey: 0,
		BuildCols: []storage.ColumnID{0, 1},
		ProbeCols: []storage.ColumnID{0, 1, 2},
	}, func(k string) string { return k })
}

func TestHashJoinVarlenKeyDictOracle(t *testing.T) {
	mgr, build, probe := joinEnv(t)
	var c exec.Counters
	plan := &exec.JoinPlan{
		Build: build, Probe: probe,
		BuildKey: 1, ProbeKey: 2, // varlen both sides; probe block is dict-frozen
		BuildCols: []storage.ColumnID{1, 0},
		ProbeCols: []storage.ColumnID{2, 1},
	}
	runJoinOracle(t, mgr, plan, func(k string) string { return k })

	// The dict-frozen probe block must take the memoized-code path.
	tx := mgr.Begin()
	defer mgr.Commit(tx, nil)
	if err := exec.HashJoin(tx, plan, &c, func(_, _ *exec.JoinRow) bool { return true }); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.DictFastBlocks == 0 {
		t.Fatal("dictionary-coded probe block never took the memoized path")
	}
	if s.JoinBuildRows == 0 || s.JoinProbeRows == 0 {
		t.Fatalf("join counters not populated: %+v", s)
	}
}

func TestHashJoinWithPredicate(t *testing.T) {
	mgr, build, probe := joinEnv(t)
	probePred := core.NewIntPred(1, 0, 600) // val in [0, 600]
	tx := mgr.Begin()
	defer mgr.Commit(tx, nil)
	plan := &exec.JoinPlan{
		Build: build, Probe: probe,
		BuildKey: 0, ProbeKey: 0,
		BuildCols: []storage.ColumnID{0},
		ProbeCols: []storage.ColumnID{1},
		ProbePred: probePred,
	}
	count := 0
	err := exec.HashJoin(tx, plan, nil, func(_, pr *exec.JoinRow) bool {
		if v := pr.Int(0); v < 0 || v > 600 {
			t.Fatalf("predicate leak: val %d", v)
		}
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("predicate join found nothing")
	}
}

func TestHashJoinKeyKindMismatch(t *testing.T) {
	mgr, build, probe := joinEnv(t)
	tx := mgr.Begin()
	defer mgr.Commit(tx, nil)
	err := exec.HashJoin(tx, &exec.JoinPlan{
		Build: build, Probe: probe,
		BuildKey: 0, ProbeKey: 2, // fixed vs varlen
	}, nil, func(_, _ *exec.JoinRow) bool { return true })
	if !errors.Is(err, exec.ErrJoinKeyKind) {
		t.Fatalf("err = %v, want ErrJoinKeyKind", err)
	}
}

func TestHashJoinEarlyStop(t *testing.T) {
	mgr, build, probe := joinEnv(t)
	tx := mgr.Begin()
	defer mgr.Commit(tx, nil)
	n := 0
	err := exec.HashJoin(tx, &exec.JoinPlan{
		Build: build, Probe: probe, BuildKey: 0, ProbeKey: 0,
		BuildCols: []storage.ColumnID{0}, ProbeCols: []storage.ColumnID{0},
	}, nil, func(_, _ *exec.JoinRow) bool {
		n++
		return n < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("early stop visited %d matches, want 10", n)
	}
}
