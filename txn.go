package mainline

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mainline/internal/txn"
)

// Txn is a transaction handle. Obtain one from Engine.Begin (or let
// View/Update manage it) and finish it exactly once with Commit or Abort;
// a second completion returns ErrTxnFinished. A Txn is single-threaded:
// only its owning goroutine may touch it.
type Txn struct {
	eng *Engine
	raw *txn.Transaction

	readOnly bool
	durable  bool
}

// TxnOption configures one transaction at Begin.
type TxnOption func(*txnSettings)

type txnSettings struct {
	readOnly bool
	durable  bool
	attempts int
}

// ReadOnly marks the transaction read-only: table writes through it return
// ErrReadOnlyTxn. Reads still get a full snapshot.
func ReadOnly() TxnOption {
	return func(s *txnSettings) { s.readOnly = true }
}

// Durable makes Commit block until the transaction's commit record is on
// disk (the WAL group-commit fsync). Without a WAL the commit is
// acknowledged synchronously, so Durable never deadlocks; with a WAL whose
// flush loop is not running (engine opened without WithBackground), Commit
// drives one flush itself.
func Durable() TxnOption {
	return func(s *txnSettings) { s.durable = true }
}

// Attempts bounds Engine.Update's retry budget for this call (default 16).
// It has no effect on Begin.
func Attempts(n int) TxnOption {
	return func(s *txnSettings) { s.attempts = n }
}

// Begin starts a transaction. It fails with ErrEngineClosed after Close,
// and with ErrDegraded for Durable transactions once the engine has
// sealed itself degraded — durability can no longer be promised, so the
// refusal happens up front rather than at Commit. Non-durable snapshots
// still begin (reads keep serving in degraded mode; writes are refused at
// the table operations).
func (e *Engine) Begin(opts ...TxnOption) (*Txn, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	var s txnSettings
	for _, o := range opts {
		o(&s)
	}
	if s.durable && e.degraded.Load() {
		return nil, e.degradedErr()
	}
	return &Txn{eng: e, raw: e.mgr.Begin(), readOnly: s.readOnly, durable: s.durable}, nil
}

// usable returns the typed error for a handle that must still be live.
func (t *Txn) usable() error {
	if t == nil || t.raw == nil || t.raw.Finished() {
		return ErrTxnFinished
	}
	return nil
}

// writable additionally rejects read-only handles and — the single write
// gate every table operation flows through — refuses writes once the
// engine is degraded: a write the log can never persist must not enter
// the version chains.
func (t *Txn) writable() error {
	if err := t.usable(); err != nil {
		return err
	}
	if t.readOnly {
		return ErrReadOnlyTxn
	}
	if t.eng.degraded.Load() {
		return t.eng.degradedErr()
	}
	return nil
}

// Commit finishes the transaction; the returned timestamp orders it
// against other transactions. For a Durable transaction it also blocks
// until the commit record is on disk. Committing a finished transaction
// returns ErrTxnFinished; committing after Engine.Close returns
// ErrEngineClosed (the transaction is left un-finished — Abort it).
func (t *Txn) Commit() (uint64, error) {
	if err := t.usable(); err != nil {
		return 0, err
	}
	e := t.eng
	// Hold off Engine.Close for the duration: once the closed-check
	// passes, the WAL flush loop (if any) stays alive until the durable
	// wait completes.
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		return 0, ErrEngineClosed
	}
	// Degraded engine: a write or durable commit must not be acked — the
	// log cannot persist it. The transaction is aborted (the handle is
	// finished; its in-memory effects roll back) and ErrDegraded returned.
	// Read-only non-durable commits proceed: they need no log.
	if e.degraded.Load() && (t.durable || t.raw.WriteSetSize() > 0) {
		e.mgr.Abort(t.raw)
		return 0, e.degradedErr()
	}
	start := time.Now()
	if !t.durable {
		ts := e.mgr.Commit(t.raw, nil)
		t.observeCommit(start, ts, time.Since(start), 0)
		return ts, nil
	}
	if e.walRunning || e.logMgr == nil {
		// Flush loop running, or no WAL at all (the callback then fires
		// synchronously inside Commit): the plain durable wait suffices.
		done := make(chan struct{})
		var derr error
		ts := e.mgr.Commit(t.raw, func(err error) { derr = err; close(done) })
		crit := time.Since(start)
		<-done
		if derr != nil {
			// The log wedged before our commit record was durable: the
			// commit is in memory but was never acked durable, and the
			// engine is (or is about to be) degraded. Fail the ack.
			return 0, fmt.Errorf("%w: %w", ErrDegraded, derr)
		}
		t.observeCommit(start, ts, crit, time.Since(start)-crit)
		return ts, nil
	}
	// Foreground WAL, no flush loop: drive the flush ourselves so the
	// durable wait can never deadlock. One FlushOnce is not always
	// enough — the log's dependency-closed write frontier can re-queue
	// our chunk while a concurrent committer sits inside its commit
	// critical section — so flush until our callback fires.
	done := make(chan struct{})
	var derr error
	ts := e.mgr.Commit(t.raw, func(err error) { derr = err; close(done) })
	crit := time.Since(start)
	for {
		e.logMgr.FlushOnce()
		select {
		case <-done:
			if derr != nil {
				return 0, fmt.Errorf("%w: %w", ErrDegraded, derr)
			}
			t.observeCommit(start, ts, crit, time.Since(start)-crit)
			return ts, nil
		default:
			runtime.Gosched()
		}
	}
}

// observeCommit records the public commit latency and, when the total
// crosses the slow-op threshold, captures a span with the critical
// section and durable wait as separate phases.
func (t *Txn) observeCommit(start time.Time, ts uint64, crit, durableWait time.Duration) {
	o := t.eng.obs
	total := crit + durableWait
	o.commit.Record(total)
	if !o.ring.Exceeds(total) {
		return
	}
	sp := SlowOp{
		Kind:   "commit",
		TxnID:  ts,
		Start:  start,
		DurNs:  int64(total),
		Phases: []SlowOpPhase{{Name: "commit_critical", DurNs: int64(crit)}},
	}
	if t.durable {
		sp.Phases = append(sp.Phases, SlowOpPhase{Name: "durable_wait", DurNs: int64(durableWait)})
	}
	o.ring.Observe(sp)
}

// Abort rolls the transaction back. Aborting a finished transaction
// returns ErrTxnFinished. Abort works even after Engine.Close (it only
// touches in-memory state), so deferred cleanup is always safe.
func (t *Txn) Abort() error {
	if err := t.usable(); err != nil {
		return err
	}
	t.eng.mgr.Abort(t.raw)
	return nil
}

// StartTs returns the transaction's snapshot timestamp.
func (t *Txn) StartTs() uint64 { return t.raw.StartTs() }

// CommitTs returns the final commit timestamp (0 before commit).
func (t *Txn) CommitTs() uint64 { return t.raw.CommitTs() }

// Committed reports whether Commit succeeded.
func (t *Txn) Committed() bool { return t.raw.Committed() }

// Aborted reports whether the transaction rolled back.
func (t *Txn) Aborted() bool { return t.raw.Aborted() }

// Finished reports whether the transaction has completed either way.
func (t *Txn) Finished() bool { return t.raw.Finished() }

// IsReadOnly reports whether the handle was begun with ReadOnly.
func (t *Txn) IsReadOnly() bool { return t.readOnly }

// View runs fn in a read-only transaction and commits it when fn returns
// nil. If fn returns an error the transaction is aborted and the error
// returned unchanged. The transaction is finished even if fn panics, so a
// recovered panic cannot leak an active handle that pins the GC
// watermark.
func (e *Engine) View(fn func(*Txn) error) error {
	tx, err := e.Begin(ReadOnly())
	if err != nil {
		return err
	}
	defer func() {
		if !tx.Finished() {
			_ = tx.Abort()
		}
	}()
	if err := fn(tx); err != nil {
		return err
	}
	if tx.Finished() {
		return nil
	}
	_, err = tx.Commit()
	return err
}

// Update retry policy: exponential backoff with jitter, bounded both in
// per-wait duration and in total attempts.
const (
	defaultUpdateAttempts = 16
	retryBaseBackoff      = 100 * time.Microsecond
	retryMaxBackoff       = 5 * time.Millisecond
)

// retryBackoff returns the jittered wait before retry number `retry` (1+).
func retryBackoff(retry int) time.Duration {
	d := retryMaxBackoff
	if retry <= 6 { // 100µs << 6 > 5ms, avoid the shift past the cap
		if s := retryBaseBackoff << uint(retry-1); s < d {
			d = s
		}
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// Update runs fn in a read-write transaction and commits it when fn
// returns nil. If fn returns ErrWriteConflict (the first-writer-wins
// rejection every table write can surface), the transaction is aborted and
// fn retried on a fresh snapshot with bounded exponential backoff — the
// idiom OLTP drivers otherwise hand-roll. Any other error aborts and is
// returned unchanged. When the retry budget (Attempts, default 16) is
// exhausted the last conflict is returned wrapped, still matching
// errors.Is(err, ErrWriteConflict). Each attempt's transaction is
// finished even if fn panics (see View).
func (e *Engine) Update(fn func(*Txn) error, opts ...TxnOption) error {
	var s txnSettings
	for _, o := range opts {
		o(&s)
	}
	attempts := s.attempts
	if attempts <= 0 {
		attempts = defaultUpdateAttempts
	}
	var err error
	for i := 1; i <= attempts; i++ {
		if i > 1 {
			time.Sleep(retryBackoff(i - 1))
		}
		if err = e.updateAttempt(fn, opts); err == nil {
			return nil
		}
		if !errors.Is(err, ErrWriteConflict) {
			return err
		}
	}
	return fmt.Errorf("mainline: Update retries exhausted after %d attempts: %w", attempts, err)
}

// updateAttempt runs one Update try; the handle is always finished on
// return, panic included.
func (e *Engine) updateAttempt(fn func(*Txn) error, opts []TxnOption) error {
	tx, err := e.Begin(opts...)
	if err != nil {
		return err
	}
	defer func() {
		if !tx.Finished() {
			_ = tx.Abort()
		}
	}()
	if err := fn(tx); err != nil {
		return err
	}
	if tx.Finished() { // fn finished the handle itself
		return nil
	}
	_, err = tx.Commit()
	return err
}
