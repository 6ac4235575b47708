package mainline

import (
	"errors"
	"syscall"
	"testing"

	"mainline/internal/checkpoint/manifestlog"
	"mainline/internal/fault"
	"mainline/internal/objstore"
)

// degradeEngine opens an engine over dir with a fault schedule that fails
// the first WAL fsync, then trips it with one durable insert. It returns
// the engine (now degraded) and the table.
func degradeEngine(t *testing.T, dir string) (*Engine, *Table) {
	t.Helper()
	inj := fault.NewInjector(fault.OS{}, 1)
	inj.AddRule(fault.Rule{Op: fault.OpSync, Path: "wal-", Count: 1, Err: syscall.EIO})
	eng, err := Open(WithDataDir(dir), WithFaultFS(inj))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.CreateTable("accounts", accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	uerr := eng.Update(func(tx *Txn) error {
		row := tbl.NewRow()
		row.Set("id", int64(1))
		row.Set("balance", int64(100))
		_, err := tbl.Insert(tx, row)
		return err
	}, Durable())
	if !errors.Is(uerr, ErrDegraded) {
		t.Fatalf("durable commit over failed fsync = %v, want ErrDegraded", uerr)
	}
	return eng, tbl
}

// TestDegradedModeSemantics covers the engine-side failure model end to
// end: one injected WAL fsync failure seals the engine read-only, durable
// Begins and all writes refuse with ErrDegraded, reads keep serving,
// health surfaces the cause, the slow-op ring captured the transition,
// and Close is clean.
func TestDegradedModeSemantics(t *testing.T) {
	eng, tbl := degradeEngine(t, t.TempDir())
	defer eng.Close()

	degraded, cause := eng.Degraded()
	if !degraded || !errors.Is(cause, ErrDegraded) {
		t.Fatalf("Degraded() = %v, %v", degraded, cause)
	}
	if !errors.Is(cause, syscall.EIO) || !errors.Is(cause, fault.ErrInjected) {
		t.Fatalf("cause %v does not wrap the injected root error", cause)
	}

	// Durable Begin refuses up front.
	if _, err := eng.Begin(Durable()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Begin(Durable()) = %v, want ErrDegraded", err)
	}

	// Non-durable writes refuse at the table operation.
	werr := eng.Update(func(tx *Txn) error {
		row := tbl.NewRow()
		row.Set("id", int64(2))
		row.Set("balance", int64(1))
		_, err := tbl.Insert(tx, row)
		return err
	})
	if !errors.Is(werr, ErrDegraded) {
		t.Fatalf("non-durable write = %v, want ErrDegraded", werr)
	}

	// A write staged on a pre-degrade snapshot is aborted at Commit, not
	// acked. (Commit checks again even though writable() gates inserts —
	// belt and suspenders for races with the transition.)
	if tx, err := eng.Begin(); err != nil {
		t.Fatal(err)
	} else {
		if _, cerr := tx.Commit(); cerr != nil {
			t.Fatalf("read-only non-durable commit = %v, want nil", cerr)
		}
	}

	// Reads keep serving the intact in-memory state.
	if err := eng.View(func(tx *Txn) error {
		return tbl.Scan(tx, []string{"id"}, func(_ TupleSlot, _ *Row) bool { return true })
	}); err != nil {
		t.Fatalf("read in degraded mode = %v", err)
	}

	// Checkpoint and DDL refuse: a snapshot could capture commits the
	// wedged log never made durable.
	if _, err := eng.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Checkpoint = %v, want ErrDegraded", err)
	}
	if _, err := eng.CreateTable("more", accountsSchema()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("CreateTable = %v, want ErrDegraded", err)
	}

	// Health and the slow-op ring surface the transition.
	h := eng.Health()
	if !h.Degraded || h.DegradedReason == "" {
		t.Fatalf("health = %+v, want degraded with reason", h)
	}
	var span *SlowOp
	for _, sp := range eng.SlowOps() {
		if sp.Kind == "degraded" {
			span = &sp
			break
		}
	}
	if span == nil {
		t.Fatal("no 'degraded' span captured in the slow-op ring")
	}

	if err := eng.Close(); err != nil {
		t.Fatalf("Close on degraded engine = %v", err)
	}
}

// TestDegradedRestartRecovers proves degraded mode is terminal for the
// process but not the data: a restart over the same directory comes back
// healthy and serves the durable prefix.
func TestDegradedRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	eng, _ := degradeEngine(t, dir)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatalf("reopen after degrade = %v", err)
	}
	defer eng2.Close()
	if degraded, _ := eng2.Degraded(); degraded {
		t.Fatal("fresh engine inherited degraded state")
	}
	tbl := eng2.Table("accounts")
	if tbl == nil {
		t.Fatal("catalog lost across degrade+restart")
	}
	insertAccount(t, eng2, tbl, 10, 500)
	if n, _ := sumBalances(t, eng2, tbl); n == 0 {
		t.Fatal("post-restart write not visible")
	}
}

// TestTruncateSyncFailureDegrades: a checkpoint's WAL truncation seals the
// active segment with an fsync, and a failed WAL fsync there is fail-stop
// like one on the flush path — the checkpoint still installs, but the
// engine seals itself read-only.
func TestTruncateSyncFailureDegrades(t *testing.T) {
	inj := fault.NewInjector(fault.OS{}, 3)
	eng, err := Open(WithDataDir(t.TempDir()), WithFaultFS(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tbl, err := eng.CreateTable("accounts", accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	insertAccount(t, eng, tbl, 1, 100)
	// No commit follows, so the next WAL fsync is the seal in Truncate.
	inj.AddRule(fault.Rule{Op: fault.OpSync, Path: "wal-", Count: 1, Err: syscall.EIO})
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if inj.FiredCount() != 1 {
		t.Fatalf("the seal fsync fault fired %d times, want 1", inj.FiredCount())
	}
	if degraded, _ := eng.Degraded(); !degraded {
		t.Fatal("a failed WAL fsync while truncating did not degrade the engine")
	}
	if err := eng.Update(func(tx *Txn) error { return nil }, Durable()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("durable txn after the failed seal = %v, want ErrDegraded", err)
	}
}

// TestCheckpointENOSPCEverySite injects ENOSPC at each checkpoint write
// site in turn — chunk object, slot object, manifest-log append, object
// install rename — and verifies the failure model: the attempt aborts,
// the engine does NOT degrade, the previous version stays restorable, the
// next attempt succeeds, the default store keeps exactly the two newest
// versions and no unreferenced object, and a plain reopen recovers
// everything.
func TestCheckpointENOSPCEverySite(t *testing.T) {
	sites := []struct {
		name string
		rule fault.Rule
	}{
		{"data-file", fault.Rule{Op: fault.OpWrite, Path: "chunk/", Count: 1, Err: syscall.ENOSPC}},
		{"slots-sidecar", fault.Rule{Op: fault.OpWrite, Path: "slots/", Count: 1, Err: syscall.ENOSPC}},
		{"manifest", fault.Rule{Op: fault.OpWrite, Path: manifestlog.LogName, Count: 1, Err: syscall.ENOSPC}},
		{"install-rename", fault.Rule{Op: fault.OpRename, Path: "objects", Count: 1, Err: syscall.ENOSPC}},
	}
	for _, site := range sites {
		t.Run(site.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.NewInjector(fault.OS{}, 7)
			eng, err := Open(WithDataDir(dir), WithFaultFS(inj))
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := eng.CreateTable("accounts", accountsSchema())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				insertAccount(t, eng, tbl, int64(i), 100)
			}
			if _, err := eng.Checkpoint(); err != nil {
				t.Fatalf("baseline checkpoint: %v", err)
			}
			for i := 20; i < 30; i++ {
				insertAccount(t, eng, tbl, int64(i), 100)
			}

			inj.AddRule(site.rule)
			if _, err := eng.Checkpoint(); !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("checkpoint under ENOSPC = %v, want injected ENOSPC", err)
			}
			// Checkpoint faults retry; they never seal the engine.
			if degraded, cause := eng.Degraded(); degraded {
				t.Fatalf("checkpoint ENOSPC degraded the engine: %v", cause)
			}
			// The previous version is still the newest, and every object
			// it names is intact.
			vs := eng.manifest.Versions()
			if len(vs) != 1 || vs[0].Version != 1 {
				t.Fatalf("versions after failed attempt = %d, want [1]", len(vs))
			}
			for _, c := range vs[0].Tables[0].Chunks {
				for _, ref := range []manifestlog.ObjectRef{c.ObjectRef, c.Slots} {
					if _, err := objstore.GetVerified(eng.objects, ref); err != nil {
						t.Fatalf("previous version's object damaged by the failed attempt: %v", err)
					}
				}
			}

			// The rule is exhausted: the retry succeeds, and further
			// checkpoints prune down to keep-2 without ever deleting the
			// newest good one.
			if _, err := eng.Checkpoint(); err != nil {
				t.Fatalf("retry checkpoint: %v", err)
			}
			insertAccount(t, eng, tbl, 100, 100)
			if _, err := eng.Checkpoint(); err != nil {
				t.Fatalf("third checkpoint: %v", err)
			}
			vs = eng.manifest.Versions()
			if len(vs) != 2 || vs[1].Version != 3 {
				t.Fatalf("%d versions after prune, want the newest 2", len(vs))
			}
			referenced := map[string]bool{}
			for _, v := range vs {
				for _, c := range v.Tables[0].Chunks {
					referenced[c.Key], referenced[c.Slots.Key] = true, true
				}
			}
			keys, err := eng.objects.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != len(referenced) {
				t.Fatalf("store holds %d objects, the retained versions name %d", len(keys), len(referenced))
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			// A plain reopen (no faults) recovers every acked commit.
			eng2, err := Open(WithDataDir(dir))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer eng2.Close()
			n, total := sumBalances(t, eng2, eng2.Table("accounts"))
			if n != 31 || total != 3100 {
				t.Fatalf("recovered %d rows / %d total, want 31 / 3100", n, total)
			}
		})
	}
}
