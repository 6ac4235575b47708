package mainline

import (
	"errors"

	"mainline/internal/checkpoint/manifestlog"
	"mainline/internal/core"
	"mainline/internal/index"
	"mainline/internal/storage"
)

// The typed error taxonomy of the public API. API misuse (double commit,
// commit after abort, use after Close) returns one of these instead of
// panicking; match with errors.Is — retry wrappers and the managed Update
// closure wrap them with context.
var (
	// ErrWriteConflict is returned when a transaction tries to write a
	// tuple whose newest version it cannot see — the engine disallows
	// write-write conflicts to avoid cascading rollbacks. Abort and retry
	// with a fresh snapshot (Engine.Update does this automatically).
	ErrWriteConflict = core.ErrWriteConflict
	// ErrNotFound is returned for writes against a tuple whose latest
	// version is deleted or absent.
	ErrNotFound = core.ErrNotFound
	// ErrTxnFinished is returned when operating on a transaction that has
	// already committed or aborted.
	ErrTxnFinished = core.ErrTxnFinished
	// ErrEngineClosed is returned by Begin, View, Update, CreateTable,
	// and Txn.Commit after Engine.Close.
	ErrEngineClosed = errors.New("mainline: engine closed")
	// ErrReadOnlyTxn is returned for writes through a transaction begun
	// with the ReadOnly option.
	ErrReadOnlyTxn = errors.New("mainline: write in read-only transaction")
	// ErrNoDataDir is returned by Engine.Checkpoint when the engine was
	// opened without WithDataDir — there is nowhere durable to write.
	ErrNoDataDir = errors.New("mainline: checkpoint requires WithDataDir")
	// ErrDegraded is returned once the engine has sealed itself into
	// degraded read-only mode after a WAL write or fsync failure: the log
	// can no longer make commits durable, so durable Begins, all writes,
	// and write/durable Commits refuse with this error while reads and
	// non-durable snapshots keep serving. The returned error wraps the
	// root cause (match the errno with errors.Is through the chain).
	// Degraded mode is terminal for the process: restart the engine to
	// recover from the log's durable prefix.
	ErrDegraded = errors.New("mainline: engine degraded (durability lost)")
	// ErrNoSuchVersion is returned by Engine.AsOf when the requested
	// timestamp predates all retained history — no committed snapshot
	// version has a snapshot timestamp at or below it.
	ErrNoSuchVersion = manifestlog.ErrNoVersion
	// ErrVersionPruned is returned by Engine.AsOf when the version that
	// served the requested timestamp has been pruned
	// (Admin().PruneSnapshots) and its chunk objects may be deleted.
	ErrVersionPruned = manifestlog.ErrVersionPruned
	// ErrNoObjectStore is returned by the tier surface (Admin().EvictAll,
	// Admin().TierSweep, Engine.AsOf time travel) when the engine was
	// opened without WithObjectStore / WithObjectStoreBackend — there is
	// no cold tier to evict to or read from.
	ErrNoObjectStore = errors.New("mainline: no object store configured")
	// ErrDuplicateColumn is returned when a projection — Table.Scan,
	// Filter, ScanBatches, or NewRowFor column lists — names the same
	// column twice. Projections are positional; a duplicated column would
	// silently alias one value slot under two positions.
	ErrDuplicateColumn = storage.ErrDuplicateColumn
	// ErrInvalidPrefixLen is returned by NewShardedIndex when prefixLen is
	// not positive — shard selection hashes the first prefixLen key bytes,
	// so the length must be at least 1.
	ErrInvalidPrefixLen = index.ErrInvalidPrefixLen
)
