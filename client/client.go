// Package client is the Go client for mainline-serve, the engine's
// Arrow-native network serving layer. It speaks both protocol planes:
//
//   - Transactional RPC: Begin/Commit/Abort, point reads and writes by
//     slot, and indexed reads (GetBy/RangeBy) over a compact binary
//     encoding.
//   - Analytical streaming: DoGet pulls a table (optionally projected and
//     filtered) as Arrow record batches — frozen blocks leave the server
//     zero-copy — and DoPut bulk-ingests batches through one server-side
//     transaction.
//
// Server rejections keep their type across the wire: errors unwrap to the
// exported sentinels, so errors.Is(err, client.ErrServerBusy) and
// errors.Is(err, mainline.ErrWriteConflict) work as they would in-process.
//
// One Client owns one connection and serializes requests on it; open one
// client per worker for parallelism — connections are the unit the
// server's admission control counts.
//
// Begin, Tx.Update and Tx.Delete are pipelined: they are not sent until
// the next call that needs an answer, which carries them in the same
// write and reads their replies first. A failure of one of them is
// returned by the transaction's next call, Commit included — the server
// has already rolled the transaction back, so its other writes never
// commit — and Abort then returns nil. An update transaction thus costs
// two round trips: GetBy carries Begin, Commit carries Update.
//
// Quickstart:
//
//	c, err := client.Dial("127.0.0.1:7878")
//	tx, err := c.Begin()
//	slot, err := tx.Insert("item", []string{"id", "name"}, []any{int64(1), "JOE"})
//	err = tx.Update("item", slot, []string{"name"}, []any{"JOE2"})
//	_, err = tx.Commit() // also reports a failed Update
//	_, err = c.DoGet("item", nil, nil, func(rb *mainline.RecordBatch) error {
//		... // rb is Arrow: columns straight off the server's frozen blocks
//	})
package client

import (
	"mainline"
	"mainline/internal/server"
)

// Re-exported client surface (implemented next to the server so both ends
// share one wire codec).
type (
	// Client is a connection to a mainline-serve server.
	Client = server.Client
	// DialOption configures Dial.
	DialOption = server.DialOption
	// Tx is a server-side transaction handle.
	Tx = server.Tx
	// TxOption configures Begin.
	TxOption = server.TxOption
	// RowData is one decoded row from Select/GetBy/RangeBy.
	RowData = server.RowData
	// GetStats summarizes one DoGet stream.
	GetStats = server.GetStats
	// Pred is a single-column predicate for filtered DoGet.
	Pred = server.WirePred
	// RemoteError is a server-reported error; it unwraps to the matching
	// sentinel.
	RemoteError = server.RemoteError
)

// Dial connects to a mainline-serve address and performs the handshake.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	return server.Dial(addr, opts...)
}

// Dial options.
var (
	// WithDialTimeout bounds connect + handshake (default 5s).
	WithDialTimeout = server.WithDialTimeout
	// WithRequestTimeout attaches a server-enforced deadline to every
	// request; expiry aborts the transaction the request was using.
	WithRequestTimeout = server.WithRequestTimeout
	// WithMaxFrame overrides the largest frame the client accepts.
	WithMaxFrame = server.WithMaxFrame
)

// Begin options.
const (
	// ReadOnly begins a read-only transaction.
	ReadOnly = server.TxReadOnly
	// Durable makes the commit wait for WAL fsync.
	Durable = server.TxDurable
)

// Typed server rejections (compare with errors.Is). Engine errors —
// mainline.ErrWriteConflict and friends — also survive the wire.
var (
	// ErrServerBusy: admission control shed this connection or request.
	ErrServerBusy = server.ErrServerBusy
	// ErrDraining: the server is shutting down gracefully.
	ErrDraining = server.ErrDraining
	// ErrDeadlineExceeded: the request's deadline passed; any transaction
	// it was using has been aborted server-side.
	ErrDeadlineExceeded = server.ErrDeadlineExceeded
	// ErrUnknownTable / ErrUnknownIndex / ErrUnknownTxn: bad names.
	ErrUnknownTable = server.ErrUnknownTable
	ErrUnknownIndex = server.ErrUnknownIndex
	ErrUnknownTxn   = server.ErrUnknownTxn
	// ErrTableExists: CreateTable of a taken name.
	ErrTableExists = server.ErrTableExists
	// ErrBadRequest: the server could not decode the request.
	ErrBadRequest = server.ErrBadRequest
	// ErrTooManyTxns: the per-session open-transaction cap was hit.
	ErrTooManyTxns = server.ErrTooManyTxns
)

// Predicate constructors for filtered DoGet.

// Eq matches col == v.
func Eq(col string, v any) *Pred { return &Pred{Col: col, Op: server.PredEq, V1: v} }

// Lt matches col < v.
func Lt(col string, v any) *Pred { return &Pred{Col: col, Op: server.PredLt, V1: v} }

// Le matches col <= v.
func Le(col string, v any) *Pred { return &Pred{Col: col, Op: server.PredLe, V1: v} }

// Gt matches col > v.
func Gt(col string, v any) *Pred { return &Pred{Col: col, Op: server.PredGt, V1: v} }

// Ge matches col >= v.
func Ge(col string, v any) *Pred { return &Pred{Col: col, Op: server.PredGe, V1: v} }

// Between matches lo <= col <= hi.
func Between(col string, lo, hi any) *Pred {
	return &Pred{Col: col, Op: server.PredBetween, V1: lo, V2: hi}
}

// NewSchema re-exports mainline.NewSchema so pure network clients can
// declare tables without importing the engine package.
func NewSchema(fields ...mainline.Field) *mainline.Schema { return mainline.NewSchema(fields...) }
