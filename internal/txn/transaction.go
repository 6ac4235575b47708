package txn

import (
	"mainline/internal/storage"
)

// RedoRecord is one after-image queued for write-ahead logging (§3.4).
type RedoRecord struct {
	// TableID names the table in catalog terms.
	TableID uint32
	// Slot is the tuple the change applies to.
	Slot storage.TupleSlot
	// Kind classifies the change.
	Kind storage.RecordKind
	// After holds the after-image of the written attributes (nil for
	// deletes).
	After *storage.ProjectedRow
}

// IndexSink is the write side of an engine-managed secondary index as the
// commit protocol sees it. Index maintenance is transactional: table
// operations buffer IndexOps on the transaction, Manager.Commit publishes
// them through the sink inside the commit latch, and Abort discards them
// untouched. PublishEntry must make the (key, slot) pair visible to index
// readers immediately; RemoveEntry must defer the physical removal until no
// active snapshot can still need the entry (core.TableIndex routes it
// through the GC's deferred-action epoch). Both must be safe for
// concurrent use.
type IndexSink interface {
	PublishEntry(key []byte, slot storage.TupleSlot)
	RemoveEntry(key []byte, slot storage.TupleSlot)
}

// IndexOp is one buffered index mutation in a transaction's write set.
type IndexOp struct {
	// Sink is the index the operation targets.
	Sink IndexSink
	// Key is the memcomparable entry key (owned by the op).
	Key []byte
	// Slot is the tuple the entry points at.
	Slot storage.TupleSlot
	// Remove distinguishes entry removal (deferred) from insertion.
	Remove bool
}

// Transaction is the per-transaction context: snapshot timestamp, in-flight
// commit timestamp, undo buffer (version-chain deltas), redo buffer
// (log after-images), and the buffered index write set. A Transaction is
// single-threaded — only its owning goroutine touches it — while the
// records it publishes into version chains are read concurrently.
type Transaction struct {
	mgr *Manager

	// shard is the latch shard assigned at Begin; Commit and retire use it
	// to pick their critical sections.
	shard uint32

	start  uint64
	txnTs  uint64 // start | UncommittedFlag while in flight
	commit uint64 // final commit (or abort) timestamp

	undo     UndoBuffer
	redo     []RedoRecord
	indexOps []IndexOp

	committed bool
	aborted   bool
	readOnly  bool

	// unlinkTs is stamped by the GC when it unlinks this transaction's
	// records; deallocation waits for the epoch to pass it (§3.3).
	unlinkTs uint64

	// durableCallback fires when the log manager has decided the fate of
	// the commit record (§3.4): err == nil after a successful group fsync,
	// non-nil when the log wedged and durability was never achieved. Nil
	// when logging is disabled.
	durableCallback func(error)
}

// StartTs returns the transaction's snapshot timestamp.
func (t *Transaction) StartTs() uint64 { return t.start }

// TxnTs returns the in-flight (uncommitted-flagged) commit timestamp that
// stamps this transaction's undo records.
func (t *Transaction) TxnTs() uint64 { return t.txnTs }

// CommitTs returns the final commit timestamp (0 before commit).
func (t *Transaction) CommitTs() uint64 { return t.commit }

// Committed reports whether Commit succeeded.
func (t *Transaction) Committed() bool { return t.committed }

// Aborted reports whether the transaction rolled back.
func (t *Transaction) Aborted() bool { return t.aborted }

// Finished reports whether the transaction has completed either way.
func (t *Transaction) Finished() bool { return t.committed || t.aborted }

// WriteSetSize returns the number of undo records installed — the metric
// Figure 14b reports for compaction transactions.
func (t *Transaction) WriteSetSize() int { return t.undo.Len() }

// NewUndoRecord reserves an undo record stamped with the transaction's
// in-flight timestamp. The caller links it into a version chain.
func (t *Transaction) NewUndoRecord(kind storage.RecordKind, slot storage.TupleSlot, delta *storage.ProjectedRow) *storage.UndoRecord {
	rec := t.undo.NewRecord()
	rec.SetTimestamp(t.txnTs)
	rec.Slot = slot
	rec.Kind = kind
	rec.Delta = delta
	rec.SetNext(nil)
	return rec
}

// DropLastUndo retracts the record most recently handed out by
// NewUndoRecord. The table layer calls it when the version-chain install
// CAS fails, so the unpublished record cannot be "rolled back" by Abort
// (see UndoBuffer.DropLast).
func (t *Transaction) DropLastUndo() { t.undo.DropLast() }

// LogRedo appends an after-image to the transaction's redo buffer. The log
// manager serializes it on commit.
func (t *Transaction) LogRedo(tableID uint32, slot storage.TupleSlot, kind storage.RecordKind, after *storage.ProjectedRow) {
	t.redo = append(t.redo, RedoRecord{TableID: tableID, Slot: slot, Kind: kind, After: after})
}

// RedoRecords exposes the redo buffer to the log manager.
func (t *Transaction) RedoRecords() []RedoRecord { return t.redo }

// BufferIndexInsert queues an index-entry insertion in the transaction's
// write set; Commit publishes it under the commit latch, Abort drops it.
// key must be owned by the caller (not reused after the call).
func (t *Transaction) BufferIndexInsert(sink IndexSink, key []byte, slot storage.TupleSlot) {
	t.indexOps = append(t.indexOps, IndexOp{Sink: sink, Key: key, Slot: slot})
}

// BufferIndexRemove queues an index-entry removal. At commit the sink is
// asked to retire the entry — physically deleted only once no active
// snapshot can still need it. Aborting drops the request (the entry stays).
func (t *Transaction) BufferIndexRemove(sink IndexSink, key []byte, slot storage.TupleSlot) {
	t.indexOps = append(t.indexOps, IndexOp{Sink: sink, Key: key, Slot: slot, Remove: true})
}

// IndexOps exposes the buffered index write set (index readers merge the
// transaction's own unpublished insertions into their results).
func (t *Transaction) IndexOps() []IndexOp { return t.indexOps }

// UndoIterate visits undo records oldest-first (GC, tests).
func (t *Transaction) UndoIterate(fn func(*storage.UndoRecord) bool) { t.undo.Iterate(fn) }

// SetUnlinkTs records when the GC unlinked this transaction's records.
func (t *Transaction) SetUnlinkTs(ts uint64) { t.unlinkTs = ts }

// UnlinkTs returns the GC unlink timestamp (0 if not yet unlinked).
func (t *Transaction) UnlinkTs() uint64 { return t.unlinkTs }

// ReleaseUndo returns the undo segments to the pool; GC-only, after the
// epoch proves no reader can still hold pointers into them.
func (t *Transaction) ReleaseUndo() { t.undo.Release() }

// FinishDurable fires the durability callback once: the log manager calls
// it with nil after the group fsync, or with the wedge error when the log
// failed before this transaction's commit record was durable. Clearing
// the field first makes double-delivery (flush success racing a wedge
// drain) harmless.
func (t *Transaction) FinishDurable(err error) {
	if t.durableCallback != nil {
		cb := t.durableCallback
		t.durableCallback = nil
		cb(err)
	}
}
