package mainline

import (
	"fmt"
	"math"
	"sync"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/core"
	"mainline/internal/storage"
)

// Pred is a typed single-column predicate for Table.Filter and
// Table.ScanBatches, built with Eq / Lt / Le / Gt / Ge / Between. The
// engine pushes it down to the scan: frozen blocks whose zone maps prove
// no row can match are pruned without being touched, and the survivors are
// filtered by typed kernels running directly over Arrow buffers. NULL
// values never match any predicate.
type Pred struct {
	col    string
	op     predOp
	v1, v2 any
}

type predOp uint8

const (
	opEq predOp = iota
	opLt
	opLe
	opGt
	opGe
	opBetween
)

// Eq matches rows whose named column equals v.
func Eq(col string, v any) *Pred { return &Pred{col: col, op: opEq, v1: v} }

// Lt matches rows whose named column is strictly less than v.
func Lt(col string, v any) *Pred { return &Pred{col: col, op: opLt, v1: v} }

// Le matches rows whose named column is less than or equal to v.
func Le(col string, v any) *Pred { return &Pred{col: col, op: opLe, v1: v} }

// Gt matches rows whose named column is strictly greater than v.
func Gt(col string, v any) *Pred { return &Pred{col: col, op: opGt, v1: v} }

// Ge matches rows whose named column is greater than or equal to v.
func Ge(col string, v any) *Pred { return &Pred{col: col, op: opGe, v1: v} }

// Between matches rows whose named column lies in [lo, hi], both bounds
// inclusive.
func Between(col string, lo, hi any) *Pred {
	return &Pred{col: col, op: opBetween, v1: lo, v2: hi}
}

// compile resolves the predicate against a table's schema into the typed
// range form the scan kernels evaluate.
func (p *Pred) compile(t *catalog.Table) (*core.Predicate, error) {
	f := t.Schema.FieldIndex(p.col)
	if f < 0 {
		return nil, fmt.Errorf("mainline: no column %q", p.col)
	}
	col := storage.ColumnID(f)
	switch ftype := t.Schema.Fields[f].Type; {
	case ftype == arrow.FLOAT64:
		return p.compileFloat(col)
	case ftype == arrow.STRING || ftype == arrow.BINARY:
		return p.compileBytes(col)
	case ftype.FixedWidth():
		return p.compileInt(col)
	default:
		return nil, fmt.Errorf("mainline: column %q: unsupported predicate type %s", p.col, ftype)
	}
}

func (p *Pred) compileInt(col storage.ColumnID) (*core.Predicate, error) {
	v1, err := predInt(p.col, p.v1)
	if err != nil {
		return nil, err
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch p.op {
	case opEq:
		lo, hi = v1, v1
	case opLt:
		if v1 == math.MinInt64 {
			return core.MatchNonePred(col), nil
		}
		hi = v1 - 1
	case opLe:
		hi = v1
	case opGt:
		if v1 == math.MaxInt64 {
			return core.MatchNonePred(col), nil
		}
		lo = v1 + 1
	case opGe:
		lo = v1
	case opBetween:
		v2, err := predInt(p.col, p.v2)
		if err != nil {
			return nil, err
		}
		lo, hi = v1, v2
	}
	return core.NewIntPred(col, lo, hi), nil
}

func (p *Pred) compileFloat(col storage.ColumnID) (*core.Predicate, error) {
	v1, err := predFloat(p.col, p.v1)
	if err != nil {
		return nil, err
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	loStrict, hiStrict := false, false
	switch p.op {
	case opEq:
		lo, hi = v1, v1
	case opLt:
		hi, hiStrict = v1, true
	case opLe:
		hi = v1
	case opGt:
		lo, loStrict = v1, true
	case opGe:
		lo = v1
	case opBetween:
		v2, err := predFloat(p.col, p.v2)
		if err != nil {
			return nil, err
		}
		lo, hi = v1, v2
	}
	return core.NewFloatPred(col, lo, hi, loStrict, hiStrict), nil
}

func (p *Pred) compileBytes(col storage.ColumnID) (*core.Predicate, error) {
	v1, err := predBytes(p.col, p.v1)
	if err != nil {
		return nil, err
	}
	var lo, hi []byte
	loStrict, hiStrict := false, false
	switch p.op {
	case opEq:
		lo, hi = v1, v1
	case opLt:
		hi, hiStrict = v1, true
	case opLe:
		hi = v1
	case opGt:
		lo, loStrict = v1, true
	case opGe:
		lo = v1
	case opBetween:
		v2, err := predBytes(p.col, p.v2)
		if err != nil {
			return nil, err
		}
		lo, hi = v1, v2
	}
	return core.NewBytesPred(col, lo, hi, loStrict, hiStrict), nil
}

func predInt(col string, v any) (int64, error) {
	switch x := v.(type) {
	case int:
		return int64(x), nil
	case int8:
		return int64(x), nil
	case int16:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case int64:
		return x, nil
	default:
		return 0, fmt.Errorf("mainline: column %q is an integer column, cannot compare with %T", col, v)
	}
}

func predFloat(col string, v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case float32:
		return float64(x), nil
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("mainline: column %q is FLOAT64, cannot compare with %T", col, v)
	}
}

func predBytes(col string, v any) ([]byte, error) {
	switch x := v.(type) {
	case string:
		b := make([]byte, len(x))
		copy(b, x)
		return b, nil
	case []byte:
		return x, nil
	default:
		return nil, fmt.Errorf("mainline: column %q is variable-length, cannot compare with %T", col, v)
	}
}

// Batch is a column-oriented view of visible tuples from one block,
// delivered by Table.ScanBatches. Frozen-block batches alias the engine's
// Arrow memory zero-copy; hot-block batches read from a columnar scratch.
// A batch — and every slice obtained from it — is valid only until the
// callback returns. Resolve column names to positions once with Column,
// then use the positional accessors.
type Batch struct {
	b      *core.Batch
	schema *Schema
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.b.Len() }

// Frozen reports whether the batch aliases frozen Arrow memory (true) or a
// materialized hot-block scratch (false).
func (b *Batch) Frozen() bool { return b.b.Frozen() }

// Column resolves a schema column name to its position in the batch's
// projection, or -1 when the column is absent.
func (b *Batch) Column(name string) int {
	f := b.schema.FieldIndex(name)
	if f < 0 {
		return -1
	}
	return b.b.Projection().IndexOf(storage.ColumnID(f))
}

// Slot returns the tuple slot of row i (usable with Table.Select/Update).
func (b *Batch) Slot(i int) TupleSlot { return b.b.Slot(i) }

// IsNull reports whether column position col of row i is NULL.
func (b *Batch) IsNull(col, i int) bool { return b.b.IsNull(col, i) }

// Int64 loads column position col of row i as int64 (8-byte columns).
func (b *Batch) Int64(col, i int) int64 { return b.b.Int64(col, i) }

// Int loads column position col of row i widened to int64 by column width.
func (b *Batch) Int(col, i int) int64 { return b.b.Int(col, i) }

// Float64 loads column position col of row i (FLOAT64 columns).
func (b *Batch) Float64(col, i int) float64 { return b.b.Float64(col, i) }

// Bytes returns the varlen value at column position col of row i; nil for
// NULL. The slice aliases batch memory — copy it to retain.
func (b *Batch) Bytes(col, i int) []byte { return b.b.Bytes(col, i) }

// String returns the varlen value at column position col of row i as a
// string ("" for NULL).
func (b *Batch) String(col, i int) string { return string(b.b.Bytes(col, i)) }

// ScanBatches visits the tuples visible to tx that satisfy pred (nil for
// all), batch-at-a-time over the named columns (all columns when cols is
// nil). It is the vectorized counterpart of Scan: frozen blocks are
// zone-map pruned and kernel-filtered without materialization. fn must not
// retain the batch; returning false stops the scan.
func (t *Table) ScanBatches(tx *Txn, cols []string, pred *Pred, fn func(b *Batch) bool) error {
	if err := tx.usable(); err != nil {
		return err
	}
	proj, cpred, err := t.scanArgs(cols, pred)
	if err != nil {
		return err
	}
	pub := batchPool.Get().(*Batch)
	pub.schema = t.Schema
	defer func() {
		*pub = Batch{}
		batchPool.Put(pub)
	}()
	return t.DataTable.ScanBatches(tx.raw, proj, cpred, func(b *core.Batch) bool {
		pub.b = b
		return fn(pub)
	})
}

// batchPool recycles the wrappers ScanBatches hands its callback: a batch
// is valid only until the callback returns.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// Filter visits every tuple visible to tx that satisfies pred,
// materializing the named columns (all when cols is nil) into row and
// invoking fn — Scan with predicate pushdown: the filtering runs
// vectorized and only matching rows are materialized. fn must not retain
// row; returning false stops the scan.
func (t *Table) Filter(tx *Txn, pred *Pred, cols []string, fn func(slot TupleSlot, row *Row) bool) error {
	if err := tx.usable(); err != nil {
		return err
	}
	proj, cpred, err := t.scanArgs(cols, pred)
	if err != nil {
		return err
	}
	row := &Row{schema: t.Schema}
	return t.DataTable.Filter(tx.raw, proj, cpred, func(slot storage.TupleSlot, pr *storage.ProjectedRow) bool {
		row.ProjectedRow = pr
		return fn(slot, row)
	})
}

// scanArgs resolves the projection (cached) and compiles the predicate.
func (t *Table) scanArgs(cols []string, pred *Pred) (*storage.Projection, *core.Predicate, error) {
	proj := t.AllColumnsProjection()
	if len(cols) > 0 {
		var err error
		proj, err = t.Table.ProjectionOf(cols...)
		if err != nil {
			return nil, nil, err
		}
	}
	var cpred *core.Predicate
	if pred != nil {
		var err error
		cpred, err = pred.compile(t.Table)
		if err != nil {
			return nil, nil, err
		}
	}
	return proj, cpred, nil
}
