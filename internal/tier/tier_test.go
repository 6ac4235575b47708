package tier_test

// Unit tests for the cold tier's object path and block cache: eviction
// and fetch roundtrips over real frozen blocks (plain gather and
// dictionary, with nulls) through a real object store; damaged objects
// — every truncation point, bit flips, a trailing byte, and CRC-valid
// objects of the wrong shape — failing the cold scan, the point read and
// the rethaw with objstore.ErrCorrupt; and the cache's budget semantics
// (zero retention, tiny LRU, unlimited) with single-flight fetch.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/core"
	"mainline/internal/gc"
	"mainline/internal/objstore"
	"mainline/internal/storage"
	"mainline/internal/tier"
	"mainline/internal/transform"
	"mainline/internal/txn"
)

// coldFixture is one table whose first block is frozen and, after
// evict, stored in a real object store behind a tier manager that the
// table reads through.
type coldFixture struct {
	mgr   *txn.Manager
	tbl   *catalog.Table
	block *storage.Block
	store *objstore.FSStore
	tier  *tier.Manager
	rows  int
}

// newColdFixture builds a table (id INT64, v STRING), inserts rows
// (every third v NULL, repetitive values so dictionary mode builds a
// small dictionary), and freezes the first block in the given mode.
func newColdFixture(t *testing.T, mode transform.Mode, rows int) *coldFixture {
	t.Helper()
	reg := storage.NewRegistry()
	m := txn.NewManager(reg)
	tbl, err := catalog.New(reg).CreateTable("tier-test", arrow.NewSchema(
		arrow.Field{Name: "id", Type: arrow.INT64},
		arrow.Field{Name: "v", Type: arrow.STRING, Nullable: true},
	))
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	row := tbl.AllColumnsProjection().NewRow()
	for id := 0; id < rows; id++ {
		row.Reset()
		row.SetInt64(0, int64(id))
		if id%3 == 0 {
			row.SetNull(1)
		} else {
			row.SetVarlen(1, []byte(fmt.Sprintf("val-%03d", id%7)))
		}
		if _, err := tbl.Insert(tx, row); err != nil {
			t.Fatal(err)
		}
	}
	m.Commit(tx, nil)

	g := gc.New(m)
	for i := 0; i < 3; i++ {
		g.RunOnce()
	}
	b := tbl.Blocks()[0]
	if b.HasActiveVersions() {
		t.Fatal("chains not pruned; cannot freeze")
	}
	b.SetState(storage.StateFreezing)
	if err := transform.GatherBlock(b, mode); err != nil {
		t.Fatal(err)
	}
	store, err := objstore.NewFSStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fx := &coldFixture{mgr: m, tbl: tbl, block: b, store: store, rows: rows, tier: tier.NewManager(store, -1, 1, nil)}
	tbl.AttachColdTier(fx.tier)
	return fx
}

// evict demotes the fixture block and returns the object's bytes.
func (fx *coldFixture) evict(t *testing.T) []byte {
	t.Helper()
	ok, err := fx.tier.EvictBlock(fx.block, fx.tbl.FrozenBatch)
	if err != nil || !ok {
		t.Fatalf("evict = %v, %v", ok, err)
	}
	data, err := fx.store.Get(fx.block.ColdKey().Key)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// frozenBuffers copies the block's frozen column buffers: the fixed
// column's data and column 1's validity, plain varlen and dictionary
// buffers (empty when absent).
func frozenBuffers(b *storage.Block) [6]string {
	var out [6]string
	out[0] = string(b.FrozenFixedData(0))
	out[1] = string(b.FrozenValidity(1))
	if fv := b.FrozenVarlenCol(1); fv != nil && b.FrozenDictCol(1) == nil {
		out[2], out[3] = string(fv.Offsets), string(fv.Values)
	}
	if d := b.FrozenDictCol(1); d != nil {
		out[3], out[4], out[5] = string(d.DictValues), string(d.Codes), string(d.DictOffsets)
	}
	return out
}

// batchBuffers is frozenBuffers over a fetched record batch.
func batchBuffers(rb *arrow.RecordBatch) [6]string {
	var out [6]string
	out[0] = string(rb.Columns[0].Values)
	v := rb.Columns[1]
	out[1] = string(v.Validity)
	if v.Dict == nil {
		out[2], out[3] = string(v.Offsets), string(v.Values)
	} else {
		out[3], out[4], out[5] = string(v.Dict.Values), string(v.Values), string(v.Dict.Offsets)
	}
	return out
}

// roundTrip evicts a block, fetches its batch back through the store
// and the cache, and rethaws it: the fetched buffers and the rethawed
// block's buffers must both equal the frozen buffers before eviction.
func roundTrip(t *testing.T, mode transform.Mode) {
	fx := newColdFixture(t, mode, 100)
	want := frozenBuffers(fx.block)
	nulls := fx.block.NullCount(1)
	if nulls == 0 {
		t.Fatal("fixture has no NULLs")
	}
	fx.evict(t)
	if fx.block.HasBuffer() {
		t.Fatal("buffers not dropped after eviction")
	}
	rb, err := fx.tier.Fetch(fx.block)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if rb.NumRows != fx.rows || rb.Columns[1].NullCount != nulls {
		t.Fatalf("fetched %d rows, %d nulls; want %d, %d", rb.NumRows, rb.Columns[1].NullCount, fx.rows, nulls)
	}
	wantType := arrow.STRING
	if mode == transform.ModeDictionary {
		wantType = arrow.DICT32
	}
	if rb.Schema.Fields[1].Type != wantType || rb.Schema.Fields[0].Name != "id" {
		t.Fatalf("fetched schema %s", rb.Schema)
	}
	if got := batchBuffers(rb); got != want {
		t.Fatal("fetched buffers differ from the frozen block's")
	}
	if !fx.block.CASResidency(storage.ResidencyEvicted, storage.ResidencyRethawing) {
		t.Fatal("claim rethaw")
	}
	if err := fx.tier.Rethaw(fx.block); err != nil {
		t.Fatalf("Rethaw: %v", err)
	}
	fx.block.SetResidency(storage.ResidencyResident)
	if got := frozenBuffers(fx.block); got != want {
		t.Fatal("rethawed buffers differ from the frozen block's")
	}
}

func TestCodecRoundTripGather(t *testing.T)     { roundTrip(t, transform.ModeGather) }
func TestCodecRoundTripDictionary(t *testing.T) { roundTrip(t, transform.ModeDictionary) }

// expectCorrupt stores damaged under the block's key and checks that the
// cold scan, the point read and a write's rethaw all fail with an error
// wrapping objstore.ErrCorrupt, that the block stays Evicted with
// nothing cached, and that the intact bytes then read again.
func (fx *coldFixture) expectCorrupt(t *testing.T, what string, damaged, intact []byte) {
	t.Helper()
	key := fx.block.ColdKey().Key
	if err := fx.store.Put(key, damaged); err != nil {
		t.Fatal(err)
	}
	tx := fx.mgr.Begin()
	slot := storage.NewTupleSlot(fx.block.ID, 1)
	row := fx.tbl.AllColumnsProjection().NewRow()
	all := fx.tbl.AllColumnsProjection()
	scanErr := fx.tbl.Scan(tx, all, func(storage.TupleSlot, *storage.ProjectedRow) bool { return true })
	batchErr := fx.tbl.ScanBatches(tx, all, nil, func(*core.Batch) bool { return true })
	_, selectErr := fx.tbl.Select(tx, slot, row)
	upd := fx.tbl.AllColumnsProjection().NewRow()
	upd.SetInt64(0, -1)
	upd.SetVarlen(1, []byte("x"))
	updateErr := fx.tbl.Update(tx, slot, upd)
	fx.mgr.Abort(tx)
	for name, err := range map[string]error{"scan": scanErr, "batch scan": batchErr, "point read": selectErr, "rethaw": updateErr} {
		if !errors.Is(err, objstore.ErrCorrupt) {
			t.Fatalf("%s: %s returned %v, want objstore.ErrCorrupt", what, name, err)
		}
	}
	if fx.block.Residency() != storage.ResidencyEvicted || fx.block.State() != storage.StateFrozen {
		t.Fatalf("%s: block left %s/%s", what, fx.block.State(), fx.block.Residency())
	}
	if n := fx.tier.Cache().Bytes(); n != 0 {
		t.Fatalf("%s: %d bytes cached from a damaged object", what, n)
	}
	if err := fx.store.Put(key, intact); err != nil {
		t.Fatal(err)
	}
	tx = fx.mgr.Begin()
	found, err := fx.tbl.Select(tx, slot, row)
	fx.mgr.Abort(tx)
	if err != nil || !found || row.Int64(0) != 1 {
		t.Fatalf("%s: read after restoring the intact object: found=%v err=%v", what, found, err)
	}
	fx.tier.Cache().Drop(key)
}

// TestCodecTruncationEveryByte: every proper prefix of an evicted
// object must fail every cold path typed, never panicking.
func TestCodecTruncationEveryByte(t *testing.T) {
	fx := newColdFixture(t, transform.ModeDictionary, 50)
	intact := fx.evict(t)
	for cut := 0; cut < len(intact); cut++ {
		fx.expectCorrupt(t, fmt.Sprintf("truncation at %d/%d", cut, len(intact)), intact[:cut], intact)
	}
}

func TestCodecBitFlips(t *testing.T) {
	fx := newColdFixture(t, transform.ModeGather, 50)
	intact := fx.evict(t)
	// Flip one bit at a spread of offsets covering headers and buffers.
	for off := 0; off < len(intact); off += 37 {
		mut := append([]byte(nil), intact...)
		mut[off] ^= 0x40
		fx.expectCorrupt(t, fmt.Sprintf("bit flip at %d", off), mut, intact)
	}
	fx.expectCorrupt(t, "trailing byte", append(append([]byte(nil), intact...), 0xAA), intact)
}

// TestCodecStructuralDamage: an object whose size and CRC match its
// reference but that does not decode, or does not fit the block's
// layout, is corrupt too — and a later rethaw of the intact object
// restores the block.
func TestCodecStructuralDamage(t *testing.T) {
	fx := newColdFixture(t, transform.ModeGather, 50)
	intact := fx.evict(t)
	ref := *fx.block.ColdKey()
	// stream encodes an n-row batch of the given column types.
	stream := func(n int, types ...arrow.TypeID) []byte {
		t.Helper()
		fields := make([]arrow.Field, len(types))
		cols := make([]*arrow.Array, len(types))
		for c, typ := range types {
			fields[c] = arrow.Field{Name: fmt.Sprintf("c%d", c), Type: typ, Nullable: true}
			b := arrow.NewBuilder(typ)
			for i := 0; i < n; i++ {
				switch typ {
				case arrow.INT64:
					b.AppendInt64(int64(i))
				case arrow.INT32:
					b.AppendInt32(int32(i))
				default:
					b.AppendString("v")
				}
			}
			cols[c] = b.Finish()
		}
		rb, err := arrow.NewRecordBatch(arrow.NewSchema(fields...), cols)
		if err != nil {
			t.Fatal(err)
		}
		data, err := arrow.EncodeBatch(rb)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	badMagic := append([]byte(nil), intact...)
	badMagic[0] = 'X'
	cases := map[string][]byte{
		"bad magic":      badMagic,
		"swapped kinds":  stream(fx.rows, arrow.STRING, arrow.INT64),
		"narrow column":  stream(fx.rows, arrow.INT32, arrow.STRING),
		"missing column": stream(fx.rows, arrow.INT64),
		"short rows":     stream(fx.rows-1, arrow.INT64, arrow.STRING),
	}
	for what, damaged := range cases {
		// Re-point the reference so the size and CRC checks pass and
		// decoding, or the layout check, has to catch the damage.
		fx.block.SetColdRef(&storage.ColdRef{Key: ref.Key, Size: int64(len(damaged)), CRC: crc32.Checksum(damaged, crc32.MakeTable(crc32.Castagnoli))})
		if err := fx.store.Put(ref.Key, damaged); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.tier.Fetch(fx.block); !errors.Is(err, objstore.ErrCorrupt) {
			t.Fatalf("%s: Fetch returned %v, want objstore.ErrCorrupt", what, err)
		}
		fx.block.SetColdRef(&ref)
		fx.expectCorrupt(t, what+" (reference intact)", damaged, intact)
	}
	if !fx.block.CASResidency(storage.ResidencyEvicted, storage.ResidencyRethawing) {
		t.Fatal("claim rethaw")
	}
	if err := fx.tier.Rethaw(fx.block); err != nil {
		t.Fatalf("rethaw of the intact object: %v", err)
	}
	fx.block.SetResidency(storage.ResidencyResident)
}

// --- cache ---

// mkBatch builds a one-row batch; the cache charges whatever size its
// fetch reports.
func mkBatch() *arrow.RecordBatch {
	rb, _ := arrow.NewRecordBatch(arrow.NewSchema(arrow.Field{Name: "x", Type: arrow.INT64}),
		[]*arrow.Array{arrow.NewFixedArray(arrow.INT64, 1, make([]byte, 8), nil, 0)})
	return rb
}

func fetchOf(size int64, calls *atomic.Int64) func() (*arrow.RecordBatch, int64, error) {
	return func() (*arrow.RecordBatch, int64, error) {
		calls.Add(1)
		return mkBatch(), size, nil
	}
}

func TestCacheUnlimited(t *testing.T) {
	c := tier.NewCache(-1)
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		if _, err := c.GetOrFetch("k", fetchOf(100, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("fetch ran %d times, want 1", calls.Load())
	}
	if c.Hits() != 2 || c.Misses() != 1 || c.Evictions() != 0 {
		t.Fatalf("hits %d misses %d evictions %d", c.Hits(), c.Misses(), c.Evictions())
	}
	if c.Bytes() != 100 {
		t.Fatalf("bytes %d, want 100", c.Bytes())
	}
}

func TestCacheZeroRetention(t *testing.T) {
	c := tier.NewCache(0)
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		if _, err := c.GetOrFetch("k", fetchOf(100, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("fetch ran %d times, want 3 (no retention)", calls.Load())
	}
	if c.Bytes() != 0 {
		t.Fatalf("bytes %d, want 0", c.Bytes())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := tier.NewCache(250)
	var calls atomic.Int64
	get := func(key string) {
		t.Helper()
		if _, err := c.GetOrFetch(key, fetchOf(100, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // touch a: b is now least-recently-used
	get("c") // 300 bytes > 250: evicts b
	if c.Evictions() != 1 {
		t.Fatalf("evictions %d, want 1", c.Evictions())
	}
	if c.Bytes() != 200 {
		t.Fatalf("bytes %d, want 200", c.Bytes())
	}
	calls.Store(0)
	get("a")
	get("c")
	if calls.Load() != 0 {
		t.Fatal("a or c evicted; LRU order wrong")
	}
	get("b")
	if calls.Load() != 1 {
		t.Fatal("b should have been the evicted entry")
	}
}

// TestCacheOversizedNewest: a block larger than the whole budget is
// still retained alone — otherwise every scan of it double-fetches.
func TestCacheOversizedNewest(t *testing.T) {
	c := tier.NewCache(10)
	var calls atomic.Int64
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrFetch("big", fetchOf(100, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("oversized block fetched %d times, want 1", calls.Load())
	}
	// A second oversized block displaces the first.
	if _, err := c.GetOrFetch("big2", fetchOf(100, &calls)); err != nil {
		t.Fatal(err)
	}
	if c.Bytes() != 100 {
		t.Fatalf("bytes %d, want exactly one oversized resident", c.Bytes())
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := tier.NewCache(-1)
	var calls atomic.Int64
	release := make(chan struct{})
	rb := mkBatch()
	fetch := func() (*arrow.RecordBatch, int64, error) {
		calls.Add(1)
		<-release
		return rb, 64, nil
	}
	const workers = 8
	var wg sync.WaitGroup
	results := make([]*arrow.RecordBatch, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got, err := c.GetOrFetch("k", fetch)
			if err != nil {
				t.Error(err)
			}
			results[w] = got
		}(w)
	}
	// Let the racers pile onto the flight, then release the one fetch.
	for calls.Load() == 0 {
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fetch ran %d times under %d racers", calls.Load(), workers)
	}
	for w, got := range results {
		if got != rb {
			t.Fatalf("worker %d got a different batch", w)
		}
	}
	if c.Misses() != 1 || c.Hits() != workers-1 {
		t.Fatalf("misses %d hits %d, want 1 and %d", c.Misses(), c.Hits(), workers-1)
	}
}

func TestCacheDrop(t *testing.T) {
	c := tier.NewCache(-1)
	var calls atomic.Int64
	if _, err := c.GetOrFetch("k", fetchOf(50, &calls)); err != nil {
		t.Fatal(err)
	}
	c.Drop("k")
	if c.Bytes() != 0 {
		t.Fatalf("bytes %d after Drop", c.Bytes())
	}
	if _, err := c.GetOrFetch("k", fetchOf(50, &calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("fetch ran %d times, want 2 after Drop", calls.Load())
	}
}
