package exec_test

// Shared fixture for the operator tests: a five-column table (int64 id,
// int32 cat, float64 amount, varlen name, int16 small) populated with
// NULL group keys, NaN/±Inf float inputs, and a deliberate mix of hot,
// frozen-gathered, and frozen-dictionary blocks — the full spread of
// storage shapes the operators must agree on. Float inputs are exactly
// representable (halves), so float sums are associative and the parallel
// operator must match the serial oracle bit for bit.

import (
	"fmt"
	"math"
	"testing"

	"mainline/internal/core"
	"mainline/internal/core/coretest"
	"mainline/internal/exec"
	"mainline/internal/gc"
	"mainline/internal/storage"
	"mainline/internal/transform"
	"mainline/internal/txn"
)

const (
	colID     = 0
	colCat    = 1
	colAmount = 2
	colName   = 3
	colSmall  = 4
)

func execEnv(t testing.TB) (*txn.Manager, *core.DataTable) {
	t.Helper()
	reg := storage.NewRegistry()
	layout, err := storage.NewBlockLayout([]storage.AttrDef{
		storage.FixedAttr(8), // id
		storage.FixedAttr(4), // cat
		storage.FixedAttr(8), // amount (float bits)
		storage.VarlenAttr(), // name
		storage.FixedAttr(2), // small
	})
	if err != nil {
		t.Fatal(err)
	}
	return txn.NewManager(reg), core.NewDataTable(reg, layout, 1, "exec-test")
}

// amountFor derives the float input for id: exact halves, with NaN and
// ±Inf sprinkled in, and NULL handled by the caller.
func amountFor(id int64) float64 {
	switch {
	case id%97 == 0:
		return math.NaN()
	case id%131 == 0:
		return math.Inf(1)
	case id%173 == 0:
		return math.Inf(-1)
	}
	return float64(id%2000-1000) / 2
}

var nameVocab = []string{"amber", "basalt", "cobalt", "dune", "ember", "flint", "garnet", "hazel"}

// insertRows inserts ids [from, to): cat NULL every 11th row, amount NULL
// every 13th, name NULL every 7th.
func insertRows(t testing.TB, m *txn.Manager, table *core.DataTable, from, to int64) {
	t.Helper()
	tx := m.Begin()
	row := table.AllColumnsProjection().NewRow()
	for id := from; id < to; id++ {
		row.Reset()
		row.SetInt64(colID, id)
		if id%11 == 0 {
			row.SetNull(colCat)
		} else {
			row.SetInt32(colCat, int32(id%8)-3)
		}
		if id%13 == 0 {
			row.SetNull(colAmount)
		} else {
			row.SetFloat64(colAmount, amountFor(id))
		}
		if id%7 == 0 {
			row.SetNull(colName)
		} else {
			row.SetVarlen(colName, []byte(nameVocab[id%int64(len(nameVocab))]))
		}
		row.SetInt16(colSmall, int16(id%3000-1500))
		if _, err := table.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
	}
	m.Commit(tx, nil)
}

func sealTail(table *core.DataTable) {
	blocks := table.Blocks()
	b := blocks[len(blocks)-1]
	b.SetInsertHead(b.Layout.NumSlots)
}

func freeze(t testing.TB, m *txn.Manager, blocks []*storage.Block, mode transform.Mode) {
	t.Helper()
	g := gc.New(m)
	for i := 0; i < 3; i++ {
		g.RunOnce()
	}
	for _, b := range blocks {
		if b.HasActiveVersions() {
			t.Fatal("version chains not pruned; cannot freeze")
		}
		b.SetState(storage.StateFreezing)
		if err := transform.GatherBlock(b, mode); err != nil {
			t.Fatal(err)
		}
	}
}

// mixedTable builds three 400-row segments: frozen-gathered, frozen-
// dictionary, and hot.
func mixedTable(t testing.TB) (*txn.Manager, *core.DataTable) {
	t.Helper()
	m, table := execEnv(t)
	insertRows(t, m, table, 0, 400)
	sealTail(table)
	insertRows(t, m, table, 400, 800)
	sealTail(table)
	insertRows(t, m, table, 800, 1200)
	freeze(t, m, table.Blocks()[:1], transform.ModeGather)
	freeze(t, m, table.Blocks()[1:2], transform.ModeDictionary)
	return m, table
}

// --- serial tuple-at-a-time oracle ----------------------------------------

// oracleState mirrors one group's accumulators with the documented
// semantics: cnt = non-NULL inputs, float min/max under the Postgres
// total order (cmp = non-NaN inputs).
type oracleState struct {
	cnt  []int64
	sumI []int64
	sumF []float64
	minI []int64
	maxI []int64
	minF []float64
	maxF []float64
	cmp  []int64
}

func newOracleState(n int) *oracleState {
	s := &oracleState{
		cnt: make([]int64, n), sumI: make([]int64, n), sumF: make([]float64, n),
		minI: make([]int64, n), maxI: make([]int64, n),
		minF: make([]float64, n), maxF: make([]float64, n), cmp: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		s.minI[i], s.maxI[i] = math.MaxInt64, math.MinInt64
		s.minF[i], s.maxF[i] = math.Inf(1), math.Inf(-1)
	}
	return s
}

// canonical renders one column of a tuple row for group-key comparison.
func canonical(row *storage.ProjectedRow, layout *storage.BlockLayout, col storage.ColumnID, isFloat bool) string {
	i := int(col) // all-columns projection: position == column id
	if row.IsNull(i) {
		return "N"
	}
	if layout.IsVarlen(col) {
		return "s:" + string(row.Varlen(i))
	}
	if isFloat {
		return fmt.Sprintf("f:%x", math.Float64bits(row.Float64(i)))
	}
	var v int64
	switch layout.AttrSize(col) {
	case 8:
		v = row.Int64(i)
	case 4:
		v = int64(row.Int32(i))
	case 2:
		v = int64(row.Int16(i))
	default:
		v = int64(row.Int8(i))
	}
	return fmt.Sprintf("i:%d", v)
}

// oracleAgg computes the reference aggregation in tx over the per-slot
// Select reference (coretest.SelectScan).
// floatCols marks FLOAT64 columns; filter (nil for all) mirrors the
// plan's predicate.
func oracleAgg(t testing.TB, table *core.DataTable, tx *txn.Transaction,
	groupBy []storage.ColumnID, aggs []exec.AggSpec, floatCols map[int]bool,
	filter func(row *storage.ProjectedRow) bool) map[string]*oracleState {
	t.Helper()
	layout := table.Layout()
	groups := make(map[string]*oracleState)
	err := coretest.SelectScan(table, tx, table.AllColumnsProjection(), func(_ storage.TupleSlot, row *storage.ProjectedRow) bool {
		if filter != nil && !filter(row) {
			return true
		}
		key := ""
		for _, g := range groupBy {
			key += canonical(row, layout, g, floatCols[int(g)]) + "|"
		}
		st := groups[key]
		if st == nil {
			st = newOracleState(len(aggs))
			groups[key] = st
		}
		for a, spec := range aggs {
			if spec.Col < 0 {
				st.cnt[a]++
				continue
			}
			i := spec.Col
			if row.IsNull(i) {
				continue
			}
			st.cnt[a]++
			if spec.Op == exec.OpCount {
				continue
			}
			if spec.Float {
				v := row.Float64(i)
				switch spec.Op {
				case exec.OpSum, exec.OpAvg:
					st.sumF[a] += v
				case exec.OpMin, exec.OpMax:
					if v == v {
						st.cmp[a]++
						if v < st.minF[a] {
							st.minF[a] = v
						}
						if v > st.maxF[a] {
							st.maxF[a] = v
						}
					}
				}
				continue
			}
			var v int64
			switch layout.AttrSize(storage.ColumnID(i)) {
			case 8:
				v = row.Int64(i)
			case 4:
				v = int64(row.Int32(i))
			case 2:
				v = int64(row.Int16(i))
			default:
				v = int64(row.Int8(i))
			}
			switch spec.Op {
			case exec.OpSum, exec.OpAvg:
				st.sumI[a] += v
			case exec.OpMin:
				if v < st.minI[a] {
					st.minI[a] = v
				}
			case exec.OpMax:
				if v > st.maxI[a] {
					st.maxI[a] = v
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

// resultKey renders group row r of res in the oracle's canonical form.
func resultKey(res *exec.AggResult, r int, groupBy []storage.ColumnID, layout *storage.BlockLayout, floatCols map[int]bool) string {
	key := ""
	for gi, g := range groupBy {
		switch {
		case res.GroupIsNull(r, gi):
			key += "N|"
		case layout.IsVarlen(g):
			key += "s:" + string(res.GroupBytes(r, gi)) + "|"
		case floatCols[int(g)]:
			key += fmt.Sprintf("f:%x|", math.Float64bits(res.GroupFloat(r, gi)))
		default:
			key += fmt.Sprintf("i:%d|", res.GroupInt(r, gi))
		}
	}
	return key
}

func floatsEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkAgainstOracle compares res against the oracle's groups.
func checkAgainstOracle(t *testing.T, res *exec.AggResult, want map[string]*oracleState,
	groupBy []storage.ColumnID, aggs []exec.AggSpec, layout *storage.BlockLayout, floatCols map[int]bool) {
	t.Helper()
	if res.Len() != len(want) {
		t.Fatalf("group count: got %d want %d", res.Len(), len(want))
	}
	for r := 0; r < res.Len(); r++ {
		key := resultKey(res, r, groupBy, layout, floatCols)
		st := want[key]
		if st == nil {
			t.Fatalf("group %q not in oracle", key)
		}
		for a, spec := range aggs {
			if got := res.Count(r, a); got != st.cnt[a] {
				t.Fatalf("group %q agg %d (%s): count got %d want %d", key, a, spec.Op, got, st.cnt[a])
			}
			wantNull := spec.Op != exec.OpCount && st.cnt[a] == 0
			if got := res.IsNull(r, a); got != wantNull {
				t.Fatalf("group %q agg %d (%s): null got %v want %v", key, a, spec.Op, got, wantNull)
			}
			if wantNull || spec.Op == exec.OpCount {
				continue
			}
			if spec.Op == exec.OpAvg {
				wantAvg := st.sumF[a] / float64(st.cnt[a])
				if !spec.Float {
					wantAvg = float64(st.sumI[a]) / float64(st.cnt[a])
				}
				if got := res.Float(r, a); !floatsEqual(got, wantAvg) {
					t.Fatalf("group %q agg %d (avg): got %v want %v", key, a, got, wantAvg)
				}
				continue
			}
			if spec.Float {
				var wantV float64
				switch spec.Op {
				case exec.OpSum:
					wantV = st.sumF[a]
				case exec.OpMin:
					// Postgres total order: MIN is NaN only when every
					// input was NaN.
					if st.cmp[a] == 0 {
						wantV = math.NaN()
					} else {
						wantV = st.minF[a]
					}
				case exec.OpMax:
					// MAX is NaN when any input was NaN.
					if st.cmp[a] < st.cnt[a] {
						wantV = math.NaN()
					} else {
						wantV = st.maxF[a]
					}
				}
				if got := res.Float(r, a); !floatsEqual(got, wantV) {
					t.Fatalf("group %q agg %d (%s float): got %v want %v", key, a, spec.Op, got, wantV)
				}
				continue
			}
			var wantV int64
			switch spec.Op {
			case exec.OpSum:
				wantV = st.sumI[a]
			case exec.OpMin:
				wantV = st.minI[a]
			case exec.OpMax:
				wantV = st.maxI[a]
			}
			if got := res.Int(r, a); got != wantV {
				t.Fatalf("group %q agg %d (%s int): got %d want %d", key, a, spec.Op, got, wantV)
			}
		}
	}
}
