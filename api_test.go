package mainline

// Tests for the transaction-centric API v2 contract: typed errors instead
// of panics on misuse, idempotent Close, durable commit without a WAL,
// read-only and durable transaction options, the View/Update managed
// closures, and name-addressed row access.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTxnLifecycleTypedErrors: double commit, commit-after-abort, and
// abort-after-commit are errors, never panics.
func TestTxnLifecycleTypedErrors(t *testing.T) {
	eng := openEngine(t)
	tbl, _ := eng.CreateTable("item", itemSchema())

	tx := begin(t, eng)
	row := tbl.NewRow()
	row.SetInt64(0, 1)
	row.SetInt64(2, 10)
	if _, err := tbl.Insert(tx, row); err != nil {
		t.Fatal(err)
	}
	if ts := commit(t, tx); ts == 0 {
		t.Fatal("commit timestamp 0")
	}
	if _, err := tx.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("double commit: %v, want ErrTxnFinished", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("abort after commit: %v, want ErrTxnFinished", err)
	}

	tx2 := begin(t, eng)
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("commit after abort: %v, want ErrTxnFinished", err)
	}
	if err := tx2.Abort(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("double abort: %v, want ErrTxnFinished", err)
	}

	// Table operations through a finished handle are typed errors too.
	if _, err := tbl.Insert(tx, tbl.NewRow()); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("insert on finished txn: %v", err)
	}
	if _, err := tbl.Select(tx, 0, tbl.NewRow()); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("select on finished txn: %v", err)
	}
	var nilTx *Txn
	if _, err := nilTx.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("nil txn commit: %v", err)
	}
}

// TestEngineCloseIdempotent: Close twice is safe, and every entry point
// reports ErrEngineClosed afterwards instead of racing stopped loops.
func TestEngineCloseIdempotent(t *testing.T) {
	eng, err := Open(WithBackground())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}
	pre := begin(t, eng)

	if err := eng.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if !eng.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if _, err := eng.Begin(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("begin after close: %v", err)
	}
	if _, err := eng.CreateTable("other", itemSchema()); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("create table after close: %v", err)
	}
	if err := eng.View(func(*Txn) error { return nil }); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("view after close: %v", err)
	}
	if err := eng.Update(func(*Txn) error { return nil }); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("update after close: %v", err)
	}
	// A transaction begun before Close cannot commit, but can be aborted.
	if _, err := pre.Commit(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("commit after close: %v", err)
	}
	if err := pre.Abort(); err != nil {
		t.Fatalf("abort after close: %v", err)
	}
}

// TestDurableCommitWithoutWAL is the regression test for the durable path
// on an engine opened with no log: the durable callback must fire
// synchronously and the commit must never deadlock.
func TestDurableCommitWithoutWAL(t *testing.T) {
	eng := openEngine(t) // no WAL, no background loops
	tbl, _ := eng.CreateTable("item", itemSchema())

	done := make(chan error, 1)
	go func() {
		tx, err := eng.Begin(Durable())
		if err != nil {
			done <- err
			return
		}
		row := tbl.NewRow()
		row.SetInt64(0, 1)
		row.SetInt64(2, 100)
		if _, err := tbl.Insert(tx, row); err != nil {
			done <- err
			return
		}
		_, err = tx.Commit()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("durable commit without WAL deadlocked")
	}
}

// TestDurableCommitForegroundWAL: a data directory's WAL without the
// background flush loop must not deadlock either — Commit drives the flush
// itself.
func TestDurableCommitForegroundWAL(t *testing.T) {
	eng := openEngine(t, WithDataDir(t.TempDir())) // note: no WithBackground
	tbl, _ := eng.CreateTable("item", itemSchema())

	done := make(chan error, 1)
	go func() {
		err := eng.Update(func(tx *Txn) error {
			row := tbl.NewRow()
			row.SetInt64(0, 2)
			row.SetInt64(2, 200)
			_, err := tbl.Insert(tx, row)
			return err
		}, Durable())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("durable commit on foreground WAL deadlocked")
	}
	if st := eng.Stats(); !st.WAL.Enabled || st.WAL.Txns == 0 || st.WAL.Syncs == 0 {
		t.Fatalf("WAL stats after durable commit: %+v", st.WAL)
	}
}

// TestReadOnlyTxnRejectsWrites: the ReadOnly option turns writes into
// typed errors while reads keep working.
func TestReadOnlyTxnRejectsWrites(t *testing.T) {
	eng := openEngine(t)
	tbl, _ := eng.CreateTable("item", itemSchema())
	slots := loadItems(t, eng, tbl, 3)

	tx := begin(t, eng, ReadOnly())
	if !tx.IsReadOnly() {
		t.Fatal("IsReadOnly false")
	}
	out := tbl.NewRow()
	if found, err := tbl.Select(tx, slots[1], out); err != nil || !found {
		t.Fatalf("read-only select: %v %v", found, err)
	}
	if _, err := tbl.Insert(tx, tbl.NewRow()); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("insert: %v, want ErrReadOnlyTxn", err)
	}
	if err := tbl.Update(tx, slots[1], out); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("update: %v, want ErrReadOnlyTxn", err)
	}
	if err := tbl.Delete(tx, slots[1]); !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("delete: %v, want ErrReadOnlyTxn", err)
	}
	commit(t, tx)

	// View hands out a read-only handle.
	err := eng.View(func(tx *Txn) error {
		_, err := tbl.Insert(tx, tbl.NewRow())
		return err
	})
	if !errors.Is(err, ErrReadOnlyTxn) {
		t.Fatalf("view insert: %v", err)
	}
}

// TestViewUpdateClosures: the managed closures commit on nil, abort on
// error, and compose.
func TestViewUpdateClosures(t *testing.T) {
	eng := openEngine(t)
	tbl, _ := eng.CreateTable("item", itemSchema())

	var slot TupleSlot
	if err := eng.Update(func(tx *Txn) error {
		row := tbl.NewRow()
		if err := row.Set("id", 7); err != nil {
			return err
		}
		if err := row.Set("name", "managed"); err != nil {
			return err
		}
		if err := row.Set("price", int64(700)); err != nil {
			return err
		}
		var err error
		slot, err = tbl.Insert(tx, row)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// View sees the committed write.
	if err := eng.View(func(tx *Txn) error {
		out := tbl.NewRow()
		found, err := tbl.Select(tx, slot, out)
		if err != nil || !found {
			return fmt.Errorf("select: %v %v", found, err)
		}
		if out.Int64("price") != 700 || out.String("name") != "managed" {
			return fmt.Errorf("read %d %q", out.Int64("price"), out.String("name"))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// A closure that finishes its handle itself (abort + nil) is not an
	// error: Update must respect the deliberate abort, like View does.
	if err := eng.Update(func(tx *Txn) error {
		row := tbl.NewRow()
		row.SetInt64(0, 9)
		if _, err := tbl.Insert(tx, row); err != nil {
			return err
		}
		return tx.Abort() // deliberate rollback, not a failure
	}); err != nil {
		t.Fatalf("self-aborting closure: %v", err)
	}

	// An error from fn aborts the transaction and surfaces unchanged.
	boom := errors.New("boom")
	if err := eng.Update(func(tx *Txn) error {
		row := tbl.NewRow()
		row.SetInt64(0, 8)
		if _, err := tbl.Insert(tx, row); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("update error passthrough: %v", err)
	}
	if err := eng.View(func(tx *Txn) error {
		n, err := tbl.CountVisible(tx)
		if err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("aborted insert visible: count=%d", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestClosurePanicFinishesTxn: a panicking closure must not leak an
// active transaction — a leaked handle would pin the GC watermark for the
// life of the process.
func TestClosurePanicFinishesTxn(t *testing.T) {
	eng := openEngine(t)
	tbl, _ := eng.CreateTable("item", itemSchema())

	for _, run := range []func(){
		func() {
			_ = eng.View(func(tx *Txn) error { panic("reader blew up") })
		},
		func() {
			_ = eng.Update(func(tx *Txn) error {
				row := tbl.NewRow()
				row.SetInt64(0, 1)
				if _, err := tbl.Insert(tx, row); err != nil {
					return err
				}
				panic("writer blew up")
			})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic did not propagate")
				}
			}()
			run()
		}()
	}
	if n := eng.Stats().ActiveTxns; n != 0 {
		t.Fatalf("leaked %d active transactions after panics", n)
	}
	// The panicked writer's insert rolled back.
	if err := eng.View(func(tx *Txn) error {
		n, err := tbl.CountVisible(tx)
		if err != nil {
			return err
		}
		if n != 0 {
			return fmt.Errorf("panicked insert visible: %d rows", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableForegroundWALConcurrent: concurrent durable commits on a
// foreground WAL (no flush loop) must all complete — the commit drives
// FlushOnce until its own callback fires, even when the dependency-closed
// write frontier re-queues its chunk behind a concurrent committer.
func TestDurableForegroundWALConcurrent(t *testing.T) {
	eng := openEngine(t, WithDataDir(t.TempDir())) // no WithBackground
	tbl, _ := eng.CreateTable("item", itemSchema())

	const workers = 4
	const commits = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				err := eng.Update(func(tx *Txn) error {
					row := tbl.NewRow()
					row.SetInt64(0, int64(w*commits+i))
					row.SetInt64(2, int64(i))
					_, err := tbl.Insert(tx, row)
					return err
				}, Durable())
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent foreground durable commits deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.WAL.Txns < workers*commits {
		t.Fatalf("WAL logged %d txns, want >= %d", st.WAL.Txns, workers*commits)
	}
}

// TestUpdateConflictRetriesBounded: while a conflicting writer holds an
// uncommitted write to the row, Update retries exactly its budget and
// returns a wrapped ErrWriteConflict.
func TestUpdateConflictRetriesBounded(t *testing.T) {
	eng := openEngine(t)
	tbl, _ := eng.CreateTable("item", itemSchema())
	slots := loadItems(t, eng, tbl, 1)

	// A long-lived transaction parks an uncommitted write on the row.
	blocker := begin(t, eng)
	u, _ := tbl.NewRowFor("price")
	u.SetInt64(0, 1)
	if err := tbl.Update(blocker, slots[0], u); err != nil {
		t.Fatal(err)
	}

	attempts := 0
	err := eng.Update(func(tx *Txn) error {
		attempts++
		w, _ := tbl.NewRowFor("price")
		w.SetInt64(0, 2)
		return tbl.Update(tx, slots[0], w)
	}, Attempts(3))
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("exhausted update: %v, want wrapped ErrWriteConflict", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want exactly 3", attempts)
	}
	commit(t, blocker)

	// With the blocker gone the same closure succeeds first try.
	attempts = 0
	if err := eng.Update(func(tx *Txn) error {
		attempts++
		w, _ := tbl.NewRowFor("price")
		w.SetInt64(0, 3)
		return tbl.Update(tx, slots[0], w)
	}); err != nil || attempts != 1 {
		t.Fatalf("uncontended update: err=%v attempts=%d", err, attempts)
	}
}

// TestUpdateRetryStress: N goroutines increment one row through
// eng.Update. Every increment must land exactly once (no lost updates, no
// double counting) and the total attempt count must stay within the retry
// budget. Runs under -race in CI.
func TestUpdateRetryStress(t *testing.T) {
	eng := openEngine(t)
	tbl, _ := eng.CreateTable("counter", NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "n", Type: INT64},
	))
	var slot TupleSlot
	if err := eng.Update(func(tx *Txn) error {
		row := tbl.NewRow()
		row.SetInt64(0, 1)
		row.SetInt64(1, 0)
		var err error
		slot, err = tbl.Insert(tx, row)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const increments = 20
	const budget = 200 // per-call retry budget, generous to avoid flakes
	var attempts atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				err := eng.Update(func(tx *Txn) error {
					attempts.Add(1)
					cur, err := tbl.NewRowFor("n")
					if err != nil {
						return err
					}
					found, err := tbl.Select(tx, slot, cur)
					if err != nil || !found {
						return fmt.Errorf("select: %v %v", found, err)
					}
					next, err := tbl.NewRowFor("n")
					if err != nil {
						return err
					}
					next.SetInt64(0, cur.ProjectedRow.Int64(0)+1)
					return tbl.Update(tx, slot, next)
				}, Attempts(budget))
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := eng.View(func(tx *Txn) error {
		out, _ := tbl.NewRowFor("n")
		found, err := tbl.Select(tx, slot, out)
		if err != nil || !found {
			return fmt.Errorf("final select: %v %v", found, err)
		}
		if got := out.ProjectedRow.Int64(0); got != workers*increments {
			return fmt.Errorf("final count = %d, want %d", got, workers*increments)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	total := attempts.Load()
	if total < workers*increments {
		t.Fatalf("attempts %d < successful updates %d", total, workers*increments)
	}
	if max := int64(workers * increments * budget); total > max {
		t.Fatalf("attempts %d exceeded aggregate budget %d", total, max)
	}
	t.Logf("%d increments in %d attempts (%.2f attempts/update)",
		workers*increments, total, float64(total)/float64(workers*increments))
}

// TestOpenOptionShim: functional options compose left to right.
func TestOpenOptionShim(t *testing.T) {
	eng2, err := Open(
		WithColdThreshold(time.Millisecond),
		WithTransformMode(TransformDictionary),
		WithSlowOpThreshold(time.Second),
		WithColdThreshold(42*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if eng2.opts.ColdThreshold != 42*time.Millisecond || eng2.opts.TransformMode != TransformDictionary || eng2.opts.SlowOpThreshold != time.Second {
		t.Fatalf("functional options not applied: %+v", eng2.opts)
	}
	_ = eng2.Close()
}

// TestNamedRowAccess: Set/getters by column name, type and width checking,
// NULL handling.
func TestNamedRowAccess(t *testing.T) {
	eng := openEngine(t)
	tbl, err := eng.CreateTable("mixed", NewSchema(
		Field{Name: "i64", Type: INT64},
		Field{Name: "i32", Type: INT32},
		Field{Name: "i16", Type: INT16},
		Field{Name: "i8", Type: INT8},
		Field{Name: "f", Type: FLOAT64},
		Field{Name: "s", Type: STRING, Nullable: true},
		Field{Name: "b", Type: BINARY, Nullable: true},
	))
	if err != nil {
		t.Fatal(err)
	}

	row := tbl.NewRow()
	for name, v := range map[string]any{
		"i64": int64(1 << 40),
		"i32": 123456,
		"i16": int16(-7),
		"i8":  int8(5),
		"f":   3.5,
		"s":   "hello",
		"b":   []byte{1, 2, 3},
	} {
		if err := row.Set(name, v); err != nil {
			t.Fatalf("Set(%q): %v", name, err)
		}
	}

	// Misuse is typed errors, not corruption.
	if err := row.Set("nope", 1); err == nil {
		t.Fatal("unknown column accepted")
	}
	if err := row.Set("s", 42); err == nil {
		t.Fatal("int into varlen accepted")
	}
	if err := row.Set("i64", "x"); err == nil {
		t.Fatal("string into fixed accepted")
	}
	if err := row.Set("i16", 1<<20); err == nil {
		t.Fatal("overflow accepted")
	}
	if err := row.Set("i8", 4.5); err == nil {
		t.Fatal("float into integer column accepted")
	}
	if err := row.Set("i64", 4.5); err == nil {
		t.Fatal("float into INT64 column accepted (would bit-reinterpret)")
	}
	// An integer into a FLOAT64 column converts by value, not by bits.
	if err := row.Set("f", 3); err != nil {
		t.Fatalf("int into FLOAT64: %v", err)
	}
	if err := row.Set("f", 3.5); err != nil {
		t.Fatal(err)
	}

	var slot TupleSlot
	if err := eng.Update(func(tx *Txn) error {
		var err error
		slot, err = tbl.Insert(tx, row)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	if err := eng.View(func(tx *Txn) error {
		out := tbl.NewRow()
		if found, err := tbl.Select(tx, slot, out); err != nil || !found {
			return fmt.Errorf("select: %v %v", found, err)
		}
		if out.Int64("i64") != 1<<40 || out.Int32("i32") != 123456 ||
			out.Int16("i16") != -7 || out.Int8("i8") != 5 {
			return fmt.Errorf("int readback: %d %d %d %d",
				out.Int64("i64"), out.Int32("i32"), out.Int16("i16"), out.Int8("i8"))
		}
		if out.Float64("f") != 3.5 {
			return fmt.Errorf("float readback: %v", out.Float64("f"))
		}
		// Cross-type getters convert by value, never by bits.
		if out.Int64("f") != 3 || out.Float64("i32") != 123456.0 {
			return fmt.Errorf("cross-type readback: %d %v", out.Int64("f"), out.Float64("i32"))
		}
		if out.String("s") != "hello" || string(out.Bytes("b")) != "\x01\x02\x03" {
			return fmt.Errorf("varlen readback: %q %v", out.String("s"), out.Bytes("b"))
		}
		if out.Null("s") {
			return fmt.Errorf("non-NULL column reported NULL")
		}
		if !out.Null("missing-column") {
			return fmt.Errorf("absent column should report NULL")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// NULL round-trip.
	if err := eng.Update(func(tx *Txn) error {
		u, err := tbl.NewRowFor("s")
		if err != nil {
			return err
		}
		if err := u.Set("s", nil); err != nil {
			return err
		}
		return tbl.Update(tx, slot, u)
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.View(func(tx *Txn) error {
		out := tbl.NewRow()
		if found, err := tbl.Select(tx, slot, out); err != nil || !found {
			return fmt.Errorf("select: %v %v", found, err)
		}
		if !out.Null("s") || out.String("s") != "" {
			return fmt.Errorf("s not NULL after update")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Scan with named columns.
	if err := eng.View(func(tx *Txn) error {
		rows := 0
		err := tbl.Scan(tx, []string{"i64", "f"}, func(_ TupleSlot, r *Row) bool {
			rows++
			return r.Int64("i64") == 1<<40 && r.Float64("f") == 3.5
		})
		if err != nil {
			return err
		}
		if rows != 1 {
			return fmt.Errorf("scan rows = %d", rows)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRecoveryStats asserts the checkpoint and recovery counters
// flow through eng.Stats(): checkpoints taken, bytes written, segments
// truncated, and tail records replayed after a restart.
func TestCheckpointRecoveryStats(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(WithDataDir(dir), WithWALSegmentSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.CreateTable("item", itemSchema())
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); !st.Checkpoint.Enabled || st.Checkpoint.Taken != 0 || st.Recovery.Bootstrapped {
		t.Fatalf("fresh data-dir stats: %+v", st.Checkpoint)
	}

	const rows = 60
	for i := 0; i < rows; i++ {
		if err := eng.Update(func(tx *Txn) error {
			r := tbl.NewRow()
			r.SetInt64(0, int64(i))
			r.SetInt64(2, int64(i))
			_, err := tbl.Insert(tx, r)
			return err
		}, Durable()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	switch {
	case st.Checkpoint.Taken != 1:
		t.Fatalf("Taken = %d, want 1", st.Checkpoint.Taken)
	case st.Checkpoint.Rows != rows:
		t.Fatalf("Rows = %d, want %d", st.Checkpoint.Rows, rows)
	case st.Checkpoint.BytesWritten == 0:
		t.Fatal("BytesWritten = 0")
	case st.Checkpoint.SegmentsTruncated != 0:
		// The first checkpoint retains its covered segments so recovery
		// can still fall back to replay-from-genesis.
		t.Fatalf("SegmentsTruncated = %d after first checkpoint, want 0", st.Checkpoint.SegmentsTruncated)
	case st.Checkpoint.LastSeq != 1 || st.Checkpoint.LastSnapshotTs == 0:
		t.Fatalf("LastSeq/LastSnapshotTs = %d/%d", st.Checkpoint.LastSeq, st.Checkpoint.LastSnapshotTs)
	case st.Checkpoint.Failed != 0:
		t.Fatalf("Failed = %d", st.Checkpoint.Failed)
	}

	// A second checkpoint supersedes the first and releases its segments.
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	switch {
	case st.Checkpoint.Taken != 2 || st.Checkpoint.LastSeq != 2:
		t.Fatalf("Taken/LastSeq = %d/%d, want 2/2", st.Checkpoint.Taken, st.Checkpoint.LastSeq)
	case st.Checkpoint.SegmentsTruncated == 0:
		t.Fatal("second checkpoint truncated no segments")
	}

	// Tail work after the checkpoint, then a clean restart.
	const tail = 5
	for i := 0; i < tail; i++ {
		if err := eng.Update(func(tx *Txn) error {
			r := tbl.NewRow()
			r.SetInt64(0, int64(1000+i))
			r.SetInt64(2, 1)
			_, err := tbl.Insert(tx, r)
			return err
		}, Durable()); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	st2 := eng2.Stats()
	switch {
	case !st2.Recovery.Bootstrapped:
		t.Fatal("Recovery.Bootstrapped = false")
	case st2.Recovery.CheckpointSeq != 2:
		t.Fatalf("Recovery.CheckpointSeq = %d", st2.Recovery.CheckpointSeq)
	case st2.Recovery.CheckpointRows != rows:
		t.Fatalf("Recovery.CheckpointRows = %d", st2.Recovery.CheckpointRows)
	case st2.Recovery.TailTxnsApplied != tail:
		t.Fatalf("Recovery.TailTxnsApplied = %d, want %d", st2.Recovery.TailTxnsApplied, tail)
	case st2.Recovery.TailRecordsApplied != tail:
		t.Fatalf("Recovery.TailRecordsApplied = %d, want %d", st2.Recovery.TailRecordsApplied, tail)
	case st2.Recovery.TailSegments == 0:
		t.Fatal("Recovery.TailSegments = 0")
	case st2.Recovery.TornTail:
		t.Fatal("clean shutdown flagged as torn")
	case st2.Recovery.ReanchorSeq != 3:
		t.Fatalf("Recovery.ReanchorSeq = %d, want 3", st2.Recovery.ReanchorSeq)
	}
	// The re-anchor counts as a taken checkpoint on the new engine.
	if st2.Checkpoint.Taken != 1 || st2.Checkpoint.LastSeq != 3 {
		t.Fatalf("post-restart checkpoint stats: %+v", st2.Checkpoint)
	}
}
