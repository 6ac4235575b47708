package core

// Engine-managed secondary indexes. The paper pairs its MVCC delta-storage
// tables with latch-free ordered indexes maintained by the engine inside
// the transaction protocol (§3.1): index writes ride the transaction's
// write set and publish at commit, index reads return slot candidates that
// are re-verified against the version chain before they are emitted, and
// physical entry removal is deferred through the GC's action epoch so no
// active snapshot can lose a tuple it is entitled to see.
//
// The maintenance protocol, per table operation:
//
//	Insert  — buffer an entry insertion for the new slot's key.
//	Update  — when the update overlaps the index's key columns, buffer a
//	          removal of the pre-image key and an insertion of the new key
//	          (no-ops when the encoded keys are equal).
//	Delete  — buffer a removal of the current key.
//	Commit  — the transaction manager publishes insertions inside the
//	          commit latch and hands removals to the GC deferrer.
//	Abort   — the buffered ops are dropped; nothing ever hit the tree.
//
// Readers therefore tolerate three transient states: an entry whose
// version is not yet (or never) visible to them, a missing removal for a
// tuple they can no longer see, and an entry whose slot has since been
// re-keyed or refilled. Each candidate costs one MVCC read of the slot
// (TableIndex.check): an invisible version rejects it. The key is
// re-encoded and compared only when the slot's block has had one of the
// index's key columns rewritten (storage.Block.Rewritten): otherwise
// every version of the slot carries the key its entries were published
// under, because the slot's key bytes were never overwritten in place
// and the slot was never refilled.
//
// The writers that put key bytes into an existing slot, and how each
// marks its block before the new version is published:
//
//	DataTable.Update         — marks the columns it writes.
//	DataTable.InsertIntoSlot — marks every column (a recycled slot).
//	txn.Manager rollback     — restores an aborted Update's before-image,
//	                           over columns that Update already marked.
//
// The mask is grow-only and ignores which indexes exist, so an index
// created after a key-column update still sees the mark.

import (
	"bytes"
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"mainline/internal/index"
	"mainline/internal/storage"
	"mainline/internal/txn"
)

// KeyColKind classifies an indexed column for order-preserving encoding.
type KeyColKind uint8

const (
	// KeyInt is a fixed-width signed integer (1, 2, 4, or 8 bytes).
	KeyInt KeyColKind = iota
	// KeyFloat is a FLOAT64 column.
	KeyFloat
	// KeyBytes is a variable-length (STRING/BINARY) column.
	KeyBytes
)

// KeyCol describes one column of an index key: which storage column it
// reads and how its value is encoded.
type KeyCol struct {
	// Col is the storage column the key component reads.
	Col storage.ColumnID
	// Kind selects the encoding.
	Kind KeyColKind
	// Width is the fixed-width byte size (KeyInt only).
	Width int
}

// IndexCounters is a point-in-time snapshot of one index's activity.
type IndexCounters struct {
	// Entries is the current number of live (key, slot) pairs, stale
	// entries awaiting deferred removal included.
	Entries int64
	// Lookups counts point reads (GetVisible); RangeScans counts
	// Ascend/AscendPrefix calls.
	Lookups    int64
	RangeScans int64
	// SlotsReverified counts candidate slots re-checked through the MVCC
	// version chain; StaleFiltered counts the candidates rejected by that
	// check (invisible version, or key no longer matching).
	SlotsReverified int64
	StaleFiltered   int64
	// EntriesPublished counts insertions published at commit;
	// EntriesRetired counts deferred removals that have physically run.
	EntriesPublished int64
	EntriesRetired   int64
}

// TableIndex is one engine-managed secondary index over a DataTable. It
// implements txn.IndexSink (the commit protocol's write side); reads go
// through GetVisible / Ascend / AscendPrefix, which re-verify every
// candidate slot against the version chain.
type TableIndex struct {
	name  string
	cols  []KeyCol
	table *DataTable
	tree  index.Index

	// keyProj projects exactly the key columns, for pre-image reads and
	// candidate verification.
	keyProj *storage.Projection
	// keyMask is keyProj's column mask, tested against a candidate block's
	// rewritten columns.
	keyMask uint64
	// keyHint sizes key builders.
	keyHint int

	scratch sync.Pool // *indexScratch

	lookups    atomic.Int64
	rangeScans atomic.Int64
	reverified atomic.Int64
	stale      atomic.Int64
	published  atomic.Int64
	retired    atomic.Int64
}

// indexScratch is the pooled per-operation working set of an index read
// or write: keys are built here and copied once, into the transaction,
// only when they ride its write set.
type indexScratch struct {
	keyRow *storage.ProjectedRow
	kb     *index.KeyBuilder
	// post builds an update's post-image key beside kb's pre-image.
	post  *index.KeyBuilder
	slots []storage.TupleSlot
}

// NewTableIndex builds an index over t keyed by cols, backed by tree. The
// caller attaches it with AttachIndex (and backfills if the table already
// holds rows).
func NewTableIndex(t *DataTable, name string, cols []KeyCol, tree index.Index) (*TableIndex, error) {
	ids := make([]storage.ColumnID, len(cols))
	hint := 0
	for i, c := range cols {
		ids[i] = c.Col
		switch c.Kind {
		case KeyBytes:
			hint += 16
		case KeyFloat:
			hint += 8
		default:
			hint += c.Width
		}
	}
	proj, err := storage.NewProjection(t.Layout(), ids)
	if err != nil {
		return nil, err
	}
	ti := &TableIndex{name: name, cols: cols, table: t, tree: tree, keyProj: proj, keyMask: proj.Mask(), keyHint: hint}
	ti.scratch.New = func() any {
		return &indexScratch{keyRow: proj.NewRow(), kb: index.NewKeyBuilder(hint), post: index.NewKeyBuilder(hint)}
	}
	return ti, nil
}

// Name returns the index's registered name.
func (ti *TableIndex) Name() string { return ti.name }

// KeyColumns returns the storage columns forming the key, in key order.
func (ti *TableIndex) KeyColumns() []storage.ColumnID {
	ids := make([]storage.ColumnID, len(ti.cols))
	for i, c := range ti.cols {
		ids[i] = c.Col
	}
	return ids
}

// Len returns the number of live entries (stale ones included until their
// deferred removal runs).
func (ti *TableIndex) Len() int { return ti.tree.Len() }

// Table returns the indexed table.
func (ti *TableIndex) Table() *DataTable { return ti.table }

// Counters snapshots the index's activity counters.
func (ti *TableIndex) Counters() IndexCounters {
	return IndexCounters{
		Entries:          int64(ti.tree.Len()),
		Lookups:          ti.lookups.Load(),
		RangeScans:       ti.rangeScans.Load(),
		SlotsReverified:  ti.reverified.Load(),
		StaleFiltered:    ti.stale.Load(),
		EntriesPublished: ti.published.Load(),
		EntriesRetired:   ti.retired.Load(),
	}
}

// PublishEntry implements txn.IndexSink: the commit protocol makes a
// buffered insertion live. Publishes are reference-counted (InsertMulti):
// every published instance is cancelled by exactly one deferred removal,
// so a (key, slot) pair that is removed and later re-established — a row
// re-keyed A→B→A, or a compaction slot reuse — survives the earlier
// incarnation's still-inflight removal.
func (ti *TableIndex) PublishEntry(key []byte, slot storage.TupleSlot) {
	ti.tree.InsertMulti(key, slot)
	ti.published.Add(1)
}

// RemoveEntry implements txn.IndexSink: physical removal of a retired
// entry, invoked by the GC once every snapshot active at the owning
// transaction's commit has finished.
func (ti *TableIndex) RemoveEntry(key []byte, slot storage.TupleSlot) {
	ti.tree.Delete(key, slot)
	ti.retired.Add(1)
}

// getScratch / putScratch recycle the per-read working set.
func (ti *TableIndex) getScratch() *indexScratch {
	return ti.scratch.Get().(*indexScratch)
}

func (ti *TableIndex) putScratch(sc *indexScratch) {
	sc.slots = sc.slots[:0]
	ti.scratch.Put(sc)
}

// appendKeyCol encodes one key component from projection position i of row.
func appendKeyCol(kb *index.KeyBuilder, c KeyCol, row *storage.ProjectedRow, i int) {
	switch c.Kind {
	case KeyBytes:
		kb.RawBytes(row.Varlen(i))
	case KeyFloat:
		kb.Float64(row.Float64(i))
	default:
		switch c.Width {
		case 8:
			kb.Int64(row.Int64(i))
		case 4:
			kb.Int32(row.Int32(i))
		case 2:
			kb.Int16(row.Int16(i))
		default:
			kb.Int8(row.Int8(i))
		}
	}
}

// encodeFromRow encodes row's key into kb (reset first). It reports false —
// the row is not indexed — when a key column is absent from row's
// projection or NULL (partial-index semantics: NULL never enters the
// tree, mirroring the partial rows Insert accepts).
func (ti *TableIndex) encodeFromRow(row *storage.ProjectedRow, kb *index.KeyBuilder) bool {
	kb.Reset()
	for _, c := range ti.cols {
		i := row.P.IndexOf(c.Col)
		if i < 0 || row.IsNull(i) {
			return false
		}
		appendKeyCol(kb, c, row, i)
	}
	return true
}

// keyWithOverlay encodes into kb (reset first) the key of base (a keyProj
// row holding the current values) with upd's values overlaid — the
// post-update key — and returns kb's bytes. nil when a key column ends up
// NULL.
func (ti *TableIndex) keyWithOverlay(base, upd *storage.ProjectedRow, kb *index.KeyBuilder) []byte {
	kb.Reset()
	for ki, c := range ti.cols {
		if j := upd.P.IndexOf(c.Col); j >= 0 {
			if upd.IsNull(j) {
				return nil
			}
			appendKeyCol(kb, c, upd, j)
			continue
		}
		if base.IsNull(ki) {
			return nil
		}
		appendKeyCol(kb, c, base, ki)
	}
	return kb.Bytes()
}

// overlaps reports whether p writes any of the index's key columns.
func (ti *TableIndex) overlaps(p *storage.Projection) bool {
	for _, c := range ti.cols {
		if p.IndexOf(c.Col) >= 0 {
			return true
		}
	}
	return false
}

// check decides whether candidate slot, found under key, is a hit for
// tx, materializing the visible version into out when out is non-nil.
// This is what lets the trees hold stale entries (deferred removals,
// uncommitted inserts, re-keyed updates, refilled slots) without ever
// corrupting a read. When the slot's block has never had a key column
// rewritten, the visible version carries the key the entry was published
// under, so one Select settles it: into out, or into the key row when
// there is nothing to materialize. Otherwise the visible version's key is
// re-encoded and compared first.
func (ti *TableIndex) check(tx *txn.Transaction, key []byte, slot storage.TupleSlot, out *storage.ProjectedRow, sc *indexScratch) bool {
	ti.reverified.Add(1)
	block := ti.table.reg.BlockFor(slot)
	if block == nil || block.Rewritten()&ti.keyMask != 0 {
		sc.keyRow.Reset()
		found, _ := ti.table.Select(tx, slot, sc.keyRow)
		if !found || !ti.encodeFromRow(sc.keyRow, sc.kb) || !bytes.Equal(sc.kb.Bytes(), key) {
			ti.stale.Add(1)
			return false
		}
		if out == nil {
			return true
		}
	}
	if out == nil {
		out = sc.keyRow
	}
	out.Reset()
	if found, _ := ti.table.Select(tx, slot, out); !found {
		ti.stale.Add(1)
		return false
	}
	return true
}

// emit checks a candidate and invokes fn on a hit. Returns false only
// when fn stopped the iteration.
func (ti *TableIndex) emit(tx *txn.Transaction, key []byte, slot storage.TupleSlot, out *storage.ProjectedRow, sc *indexScratch, fn func(storage.TupleSlot, *storage.ProjectedRow) bool) bool {
	if !ti.check(tx, key, slot, out, sc) {
		return true
	}
	return fn(slot, out)
}

// GetVisible returns the slot of the tuple with the given key visible to
// tx, materializing it into out when out is non-nil. Candidates come from
// the tree plus the transaction's own unpublished insertions, and each is
// checked against tx's snapshot; stale entries are skipped, so a hit is
// always a tuple tx is entitled to see.
func (ti *TableIndex) GetVisible(tx *txn.Transaction, key []byte, out *storage.ProjectedRow) (storage.TupleSlot, bool) {
	ti.lookups.Add(1)
	sc := ti.getScratch()
	defer ti.putScratch(sc)
	sc.slots = ti.tree.Get(key, sc.slots[:0])
	for _, op := range tx.IndexOps() {
		if op.Sink == txn.IndexSink(ti) && !op.Remove && bytes.Equal(op.Key, key) {
			sc.slots = append(sc.slots, op.Slot)
		}
	}
	for _, slot := range sc.slots {
		if ti.check(tx, key, slot, out, sc) {
			return slot, true
		}
	}
	return 0, false
}

// pendingInRange collects tx's own unpublished insertions into [lo, hi)
// (hi nil = unbounded), sorted by key, so range reads see the
// transaction's uncommitted writes.
func (ti *TableIndex) pendingInRange(tx *txn.Transaction, lo, hi []byte) []txn.IndexOp {
	var pend []txn.IndexOp
	for _, op := range tx.IndexOps() {
		if op.Sink != txn.IndexSink(ti) || op.Remove {
			continue
		}
		if bytes.Compare(op.Key, lo) < 0 || (hi != nil && bytes.Compare(op.Key, hi) >= 0) {
			continue
		}
		pend = append(pend, op)
	}
	if len(pend) > 1 {
		for i := 1; i < len(pend); i++ { // tiny insertion sort; write sets are small
			for j := i; j > 0 && bytes.Compare(pend[j-1].Key, pend[j].Key) > 0; j-- {
				pend[j-1], pend[j] = pend[j], pend[j-1]
			}
		}
	}
	return pend
}

// Ascend visits the index entries in [lo, hi) in key order (hi nil =
// unbounded), re-verifying each candidate against tx's snapshot. When out
// is non-nil the visible version is materialized into it before fn runs
// (fn receives out; it must not retain it); with out nil, fn receives only
// verified slots. The transaction's own unpublished insertions are merged
// in key order. fn returning false stops the scan.
//
// fn runs while an index shard latch is held: it must not commit or abort
// a transaction that wrote this index (buffered writes through the table
// are fine — they touch no tree until commit).
func (ti *TableIndex) Ascend(tx *txn.Transaction, lo, hi []byte, out *storage.ProjectedRow, fn func(slot storage.TupleSlot, row *storage.ProjectedRow) bool) {
	ti.rangeScans.Add(1)
	sc := ti.getScratch()
	defer ti.putScratch(sc)
	pend := ti.pendingInRange(tx, lo, hi)
	pi := 0
	stopped := false
	var seen pairsSeen
	ti.tree.Scan(lo, hi, func(k []byte, s storage.TupleSlot) bool {
		for pi < len(pend) && bytes.Compare(pend[pi].Key, k) <= 0 {
			if seen.first(pend[pi].Key, pend[pi].Slot) && !ti.emit(tx, pend[pi].Key, pend[pi].Slot, out, sc, fn) {
				stopped = true
				return false
			}
			pi++
		}
		if seen.first(k, s) && !ti.emit(tx, k, s, out, sc, fn) {
			stopped = true
			return false
		}
		return true
	})
	for ; !stopped && pi < len(pend); pi++ {
		if seen.first(pend[pi].Key, pend[pi].Slot) && !ti.emit(tx, pend[pi].Key, pend[pi].Slot, out, sc, fn) {
			return
		}
	}
}

// pairsSeen lets Ascend emit each (key, slot) pair at most once, over
// pairs that arrive in key order: reference-counted publishes can
// transiently hold an instance more than once, and a pair the reading
// transaction re-published itself (a row re-keyed A→B→A) also arrives
// from its pending insertions.
type pairsSeen struct {
	key   []byte
	slots []storage.TupleSlot
}

// first reports whether (k, s) is new.
func (p *pairsSeen) first(k []byte, s storage.TupleSlot) bool {
	if !bytes.Equal(p.key, k) {
		p.key = append(p.key[:0], k...)
		p.slots = p.slots[:0]
	} else if slices.Contains(p.slots, s) {
		return false
	}
	p.slots = append(p.slots, s)
	return true
}

// AscendPrefix visits every entry whose key starts with prefix, in key
// order, with Ascend's verification and materialization semantics.
func (ti *TableIndex) AscendPrefix(tx *txn.Transaction, prefix []byte, out *storage.ProjectedRow, fn func(slot storage.TupleSlot, row *storage.ProjectedRow) bool) {
	ti.Ascend(tx, prefix, index.PrefixEnd(prefix), out, fn)
}

// Backfill populates the tree from every tuple visible to tx — index
// creation over a non-empty table, and the recovery rebuild. It collects
// the (key, slot) pairs, sorts them and inserts them in ascending order,
// so the tree's append splits leave every leaf full. Concurrent
// maintenance may insert the same (key, slot) pair; the trees deduplicate.
// Returns the number of entries inserted.
func (ti *TableIndex) Backfill(tx *txn.Transaction) (int64, error) {
	var keys []byte
	var ends []int
	var slots []storage.TupleSlot
	kb := index.NewKeyBuilder(ti.keyHint)
	err := ti.table.Scan(tx, ti.keyProj, func(slot storage.TupleSlot, row *storage.ProjectedRow) bool {
		if ti.encodeFromRow(row, kb) {
			keys = append(keys, kb.Bytes()...)
			ends = append(ends, len(keys))
			slots = append(slots, slot)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	key := func(i int32) []byte {
		if i == 0 {
			return keys[:ends[0]]
		}
		return keys[ends[i-1]:ends[i]]
	}
	order := make([]int32, len(slots))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := bytes.Compare(key(a), key(b)); c != 0 {
			return c
		}
		return cmp.Compare(slots[a], slots[b])
	})
	for _, i := range order {
		ti.tree.Insert(key(i), slots[i])
	}
	return int64(len(order)), nil
}

// --- DataTable side: attachment and write-path maintenance. ---

// AttachIndex activates maintenance of ti on every subsequent write to the
// table. Attach before backfilling a non-empty table: entries the backfill
// races with are deduplicated. The combination misses nothing ONLY once
// every transaction that began before the attach has finished — such
// writers buffer no deltas, so the backfill snapshot must start after
// them (the public CreateIndex drains them; single-threaded callers are
// safe by construction).
func (t *DataTable) AttachIndex(ti *TableIndex) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.indexList()
	grown := make([]*TableIndex, len(cur), len(cur)+1)
	copy(grown, cur)
	grown = append(grown, ti)
	t.indexes.Store(&grown)
}

// DetachIndex deactivates maintenance of ti (index-creation rollback when
// catalog persistence fails). Entries already buffered by in-flight
// transactions still publish; readers just can no longer reach the tree.
func (t *DataTable) DetachIndex(ti *TableIndex) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.indexList()
	kept := make([]*TableIndex, 0, len(cur))
	for _, x := range cur {
		if x != ti {
			kept = append(kept, x)
		}
	}
	t.indexes.Store(&kept)
}

// Indexes returns the attached indexes (shared slice; do not mutate).
func (t *DataTable) Indexes() []*TableIndex { return t.indexList() }

func (t *DataTable) indexList() []*TableIndex {
	p := t.indexes.Load()
	if p == nil {
		return nil
	}
	return *p
}

// bufferIndexInserts queues index insertions for a newly written row.
func (t *DataTable) bufferIndexInserts(tx *txn.Transaction, row *storage.ProjectedRow, slot storage.TupleSlot) {
	for _, ti := range t.indexList() {
		sc := ti.getScratch()
		if ti.encodeFromRow(row, sc.kb) {
			tx.BufferIndexInsert(ti, tx.OwnKey(sc.kb.Bytes()), slot)
		}
		ti.putScratch(sc)
	}
}

// indexKeyChange is one index's (pre-image, post-image) key pair for an
// update that overlaps its key columns. The keys are owned by the writing
// transaction (txn.Transaction.OwnKey).
type indexKeyChange struct {
	ti     *TableIndex
	oldKey []byte // nil: pre-image was not indexed
	newKey []byte // nil: post-image is not indexed
}

// computeIndexUpdates captures, for each index whose key columns the
// update writes, the pre-image key (read in place — legal because the
// caller has passed canWrite, so the in-place image is the latest
// committed version or the transaction's own) and the post-image key.
// Must run BEFORE the in-place writes; the result is buffered only if the
// version-pointer CAS succeeds. Changes are appended to changes.
func (t *DataTable) computeIndexUpdates(tx *txn.Transaction, block *storage.Block, offset uint32, head *storage.UndoRecord, update *storage.ProjectedRow, changes []indexKeyChange) []indexKeyChange {
	for _, ti := range t.indexList() {
		if !ti.overlaps(update.P) {
			continue
		}
		sc := ti.getScratch()
		// A head that moved fails the caller's CAS, which drops the result.
		copyInPlace(block, offset, head, cellSink{out: sc.keyRow})
		var oldKey []byte
		if ti.encodeFromRow(sc.keyRow, sc.kb) {
			oldKey = sc.kb.Bytes()
		}
		newKey := ti.keyWithOverlay(sc.keyRow, update, sc.post)
		if !bytes.Equal(oldKey, newKey) {
			ch := indexKeyChange{ti: ti}
			if oldKey != nil {
				ch.oldKey = tx.OwnKey(oldKey)
			}
			if newKey != nil {
				ch.newKey = tx.OwnKey(newKey)
			}
			changes = append(changes, ch)
		}
		ti.putScratch(sc)
	}
	return changes
}

// bufferIndexUpdates queues the key changes computed by
// computeIndexUpdates once the update has won its version-pointer CAS.
func bufferIndexUpdates(tx *txn.Transaction, changes []indexKeyChange, slot storage.TupleSlot) {
	for _, ch := range changes {
		if ch.oldKey != nil {
			tx.BufferIndexRemove(ch.ti, ch.oldKey, slot)
		}
		if ch.newKey != nil {
			tx.BufferIndexInsert(ch.ti, ch.newKey, slot)
		}
	}
}

// computeIndexRemovals captures each index's current key for a tuple about
// to be deleted (same in-place legality argument as computeIndexUpdates),
// appending to changes.
func (t *DataTable) computeIndexRemovals(tx *txn.Transaction, block *storage.Block, offset uint32, head *storage.UndoRecord, changes []indexKeyChange) []indexKeyChange {
	for _, ti := range t.indexList() {
		sc := ti.getScratch()
		copyInPlace(block, offset, head, cellSink{out: sc.keyRow})
		if ti.encodeFromRow(sc.keyRow, sc.kb) {
			changes = append(changes, indexKeyChange{ti: ti, oldKey: tx.OwnKey(sc.kb.Bytes())})
		}
		ti.putScratch(sc)
	}
	return changes
}

// bufferIndexRemovals queues the removals computed by computeIndexRemovals
// once the delete has won its version-pointer CAS.
func bufferIndexRemovals(tx *txn.Transaction, changes []indexKeyChange, slot storage.TupleSlot) {
	for _, ch := range changes {
		tx.BufferIndexRemove(ch.ti, ch.oldKey, slot)
	}
}
