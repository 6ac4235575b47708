package mainline

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mainline/internal/arrow"
	"mainline/internal/wal"
)

func accountsSchema() *Schema {
	return NewSchema(
		Field{Name: "id", Type: INT64},
		Field{Name: "owner", Type: STRING, Nullable: true},
		Field{Name: "balance", Type: INT64},
	)
}

func insertAccount(t *testing.T, eng *Engine, tbl *Table, id, balance int64) TupleSlot {
	t.Helper()
	var slot TupleSlot
	if err := eng.Update(func(tx *Txn) error {
		row := tbl.NewRow()
		row.Set("id", id)
		row.Set("owner", fmt.Sprintf("owner-%d", id))
		row.Set("balance", balance)
		var err error
		slot, err = tbl.Insert(tx, row)
		return err
	}, Durable()); err != nil {
		t.Fatal(err)
	}
	return slot
}

func sumBalances(t *testing.T, eng *Engine, tbl *Table) (count int, total int64) {
	t.Helper()
	if err := eng.View(func(tx *Txn) error {
		return tbl.Scan(tx, []string{"balance"}, func(_ TupleSlot, row *Row) bool {
			count++
			total += row.Int64("balance")
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	return count, total
}

// TestDataDirKillAndRestart is the acceptance round trip: open with
// WithDataDir, load data, checkpoint, commit more transactions, "SIGKILL"
// (abandon the engine without Close), reopen, and observe (a) all
// committed data visible, (b) only the post-checkpoint WAL tail replayed,
// (c) pre-checkpoint WAL segments deleted, and (d) each checkpoint table
// file readable back as a standalone Arrow IPC stream.
func TestDataDirKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(WithDataDir(dir), WithWALSegmentSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.CreateTable("accounts", accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	var slots []TupleSlot
	const preRows = 120
	for i := 0; i < preRows; i++ {
		slots = append(slots, insertAccount(t, eng, tbl, int64(i), 1000))
	}

	walDir := filepath.Join(dir, "wal")
	preSegs, err := wal.ListSegments(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(preSegs) < 2 {
		t.Fatalf("expected segment rotation before checkpoint, got %d segments", len(preSegs))
	}

	info, err := eng.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != preRows || info.Tables != 1 {
		t.Fatalf("checkpoint info = %+v", info)
	}
	// The first checkpoint retains its covered segments: recovery can fall
	// back one checkpoint, which is only sound while the log still covers
	// everything after the previous snapshot (here: genesis). Truncation
	// happens when the NEXT checkpoint supersedes this one.
	maxPre := preSegs[len(preSegs)-1].Seq
	postSegs, err := wal.ListSegments(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(postSegs) < len(preSegs) {
		t.Fatalf("first checkpoint deleted fallback segments: %d -> %d", len(preSegs), len(postSegs))
	}

	// (d) every checkpoint chunk object is a standalone Arrow IPC stream.
	ckptRows := 0
	for _, c := range eng.manifest.Latest().Tables[0].Chunks {
		data, err := os.ReadFile(filepath.Join(dir, "objects", c.Key))
		if err != nil {
			t.Fatal(err)
		}
		at, err := arrow.ReadTable(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("checkpoint chunk not readable as Arrow IPC: %v", err)
		}
		ckptRows += at.NumRows()
	}
	if ckptRows != preRows {
		t.Fatalf("checkpoint chunks hold %d rows, want %d", ckptRows, preRows)
	}

	// Post-checkpoint tail: inserts, an update of a pre-checkpoint row
	// (exercises the slot sidecar), and a delete.
	const postInserts = 30
	for i := 0; i < postInserts; i++ {
		insertAccount(t, eng, tbl, int64(1000+i), 500)
	}
	if err := eng.Update(func(tx *Txn) error {
		u, err := tbl.NewRowFor("balance")
		if err != nil {
			return err
		}
		u.Set("balance", int64(7777))
		if err := tbl.Update(tx, slots[3], u); err != nil {
			return err
		}
		return tbl.Delete(tx, slots[4])
	}, Durable()); err != nil {
		t.Fatal(err)
	}
	wantCount := preRows + postInserts - 1
	wantTotal := int64(preRows-2)*1000 + 7777 + int64(postInserts)*500
	if c, tot := sumBalances(t, eng, tbl); c != wantCount || tot != wantTotal {
		t.Fatalf("pre-crash state: %d rows / %d total, want %d / %d", c, tot, wantCount, wantTotal)
	}
	postTxns := postInserts + 1 // the update+delete txn

	// "SIGKILL": abandon the engine without Close. Background loops are
	// off and every commit was durable, so the files are a crash image.
	// A real kill releases the flock with the process; the in-process
	// simulation must drop it by hand.
	eng.dirLock()
	eng2, err := Open(WithDataDir(dir), WithWALSegmentSize(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	tbl2 := eng2.Table("accounts")
	if tbl2 == nil {
		t.Fatal("table not rehydrated from catalog.json")
	}

	// (a) all committed data visible.
	if c, tot := sumBalances(t, eng2, tbl2); c != wantCount || tot != wantTotal {
		t.Fatalf("post-restart state: %d rows / %d total, want %d / %d", c, tot, wantCount, wantTotal)
	}

	// (b) only the post-checkpoint tail was replayed.
	st := eng2.Stats()
	if !st.Recovery.Bootstrapped {
		t.Fatal("recovery stats say nothing was bootstrapped")
	}
	if st.Recovery.CheckpointSeq != info.Seq {
		t.Fatalf("bootstrapped from checkpoint %d, want %d", st.Recovery.CheckpointSeq, info.Seq)
	}
	if st.Recovery.CheckpointRows != preRows {
		t.Fatalf("checkpoint restored %d rows, want %d", st.Recovery.CheckpointRows, preRows)
	}
	if st.Recovery.TailTxnsApplied != postTxns {
		t.Fatalf("tail replayed %d txns, want exactly the %d post-checkpoint ones", st.Recovery.TailTxnsApplied, postTxns)
	}
	if st.Recovery.ReanchorSeq <= info.Seq {
		t.Fatalf("bootstrap did not re-anchor (reanchor seq %d)", st.Recovery.ReanchorSeq)
	}

	// (c) pre-checkpoint WAL segments are deleted once the re-anchor
	// checkpoint supersedes the manual one: every surviving segment is
	// newer than every pre-checkpoint segment.
	remaining, err := wal.ListSegments(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range remaining {
		if s.Seq <= maxPre {
			t.Fatalf("pre-checkpoint segment %d survived the superseding checkpoint", s.Seq)
		}
	}
	if st.Checkpoint.SegmentsTruncated == 0 {
		t.Fatal("re-anchor checkpoint truncated no segments")
	}

	// The engine keeps working after recovery: more durable commits and a
	// second restart round trip.
	insertAccount(t, eng2, tbl2, 5000, 123)
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	eng3, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	if c, tot := sumBalances(t, eng3, eng3.Table("accounts")); c != wantCount+1 || tot != wantTotal+123 {
		t.Fatalf("second restart: %d rows / %d total, want %d / %d", c, tot, wantCount+1, wantTotal+123)
	}
}

// TestDataDirCrashMidTail covers the pure-WAL crash path: no manual
// checkpoint, torn bytes on the tail, restart recovers the committed
// prefix.
func TestDataDirCrashMidTail(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.CreateTable("accounts", accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		insertAccount(t, eng, tbl, int64(i), 10)
	}
	// Tear the active segment: append garbage, as a crash mid-write would.
	segs, err := wal.ListSegments(filepath.Join(dir, "wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %d", err, len(segs))
	}
	f, err := os.OpenFile(segs[len(segs)-1].Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Crash: the first engine is simply abandoned, never Closed. A real
	// kill releases the flock with the process; drop it by hand here.
	eng.dirLock()
	eng2, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	st := eng2.Stats()
	if !st.Recovery.TornTail {
		t.Fatal("torn tail not detected")
	}
	if st.Recovery.TailTxnsApplied != 25 {
		t.Fatalf("replayed %d txns, want 25", st.Recovery.TailTxnsApplied)
	}
	if c, tot := sumBalances(t, eng2, eng2.Table("accounts")); c != 25 || tot != 250 {
		t.Fatalf("recovered %d rows / %d total", c, tot)
	}

	// The recovered tear must have been repaired: committing new work and
	// reopening again must succeed (a retained garbage tail would read as
	// a mid-history hole and refuse this second open).
	insertAccount(t, eng2, eng2.Table("accounts"), 100, 10)
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	eng3, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatalf("reopen after recovered crash failed: %v", err)
	}
	defer eng3.Close()
	if st3 := eng3.Stats(); st3.Recovery.TornTail {
		t.Fatal("repaired tear still reported torn on the next startup")
	}
	if c, tot := sumBalances(t, eng3, eng3.Table("accounts")); c != 26 || tot != 260 {
		t.Fatalf("post-repair state: %d rows / %d total, want 26 / 260", c, tot)
	}
}

// TestBackgroundCheckpointer verifies WithCheckpointInterval drives
// checkpoints and truncation without manual calls.
func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(
		WithDataDir(dir),
		WithBackground(),
		WithCheckpointInterval(10*time.Millisecond),
		WithWALSegmentSize(2048),
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.CreateTable("accounts", accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		insertAccount(t, eng, tbl, int64(i), 1)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := eng.Stats(); st.Checkpoint.Taken >= 1 && st.Checkpoint.LastSeq >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never ran: %+v", eng.Stats().Checkpoint)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing twice stays safe with the checkpointer wired in.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// And the data survives.
	eng2, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if c, _ := sumBalances(t, eng2, eng2.Table("accounts")); c != 50 {
		t.Fatalf("recovered %d rows, want 50", c)
	}
}

// TestDataDirExclusiveLock pins the flock: a second engine cannot open a
// live data directory, and Close releases it.
func TestDataDirExclusiveLock(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(WithDataDir(dir)); err == nil {
		t.Fatal("second Open of a live data directory succeeded")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatalf("reopen after Close failed: %v", err)
	}
	eng2.Close()
}

// TestCheckpointIntervalRequiresDataDir pins the option validation.
func TestCheckpointIntervalRequiresDataDir(t *testing.T) {
	if _, err := Open(WithCheckpointInterval(time.Second)); err == nil {
		t.Fatal("WithCheckpointInterval without WithDataDir accepted")
	}
}

// TestCheckpointWithoutDataDir pins ErrNoDataDir.
func TestCheckpointWithoutDataDir(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Checkpoint(); !errors.Is(err, ErrNoDataDir) {
		t.Fatalf("Checkpoint() = %v, want ErrNoDataDir", err)
	}
}

// TestFallbackAfterSuccessorTruncation pins the retention rule that makes
// the checkpoint fallback sound: after checkpoint N+1 truncates N's
// segments, corrupting N+1 must still leave a fully recoverable directory,
// because the WAL retains everything after N's snapshot.
func TestFallbackAfterSuccessorTruncation(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(WithDataDir(dir), WithWALSegmentSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.CreateTable("accounts", accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		insertAccount(t, eng, tbl, int64(i), 10)
	}
	if _, err := eng.Checkpoint(); err != nil { // seq 1
		t.Fatal(err)
	}
	for i := 40; i < 70; i++ {
		insertAccount(t, eng, tbl, int64(i), 10)
	}
	info2, err := eng.Checkpoint() // seq 2: truncates seq 1's segments
	if err != nil {
		t.Fatal(err)
	}
	if info2.SegmentsRemoved == 0 {
		t.Fatal("successor checkpoint truncated nothing")
	}
	for i := 70; i < 80; i++ {
		insertAccount(t, eng, tbl, int64(i), 10)
	}
	newest := eng.manifest.Latest()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest checkpoint's chunk object.
	if newest.Version != info2.Seq {
		t.Fatalf("newest version %d, want %d", newest.Version, info2.Seq)
	}
	path := filepath.Join(dir, "objects", newest.Tables[0].Chunks[0].Key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	eng2, err := Open(WithDataDir(dir), WithWALSegmentSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	st := eng2.Stats()
	if st.Recovery.CheckpointSeq != 1 || st.Recovery.CheckpointFallbacks != 1 {
		t.Fatalf("anchored on seq %d with %d fallbacks, want seq 1 / 1 fallback",
			st.Recovery.CheckpointSeq, st.Recovery.CheckpointFallbacks)
	}
	if c, tot := sumBalances(t, eng2, eng2.Table("accounts")); c != 80 || tot != 800 {
		t.Fatalf("fallback recovery lost data: %d rows / %d total, want 80 / 800", c, tot)
	}

	// The re-anchor after the fallback is a clean version: the next
	// reopen anchors on it without falling back.
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	eng3, err := Open(WithDataDir(dir), WithWALSegmentSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	if st := eng3.Stats(); st.Recovery.CheckpointFallbacks != 0 || st.Recovery.CheckpointSeq <= info2.Seq {
		t.Fatalf("second reopen anchored on version %d with %d fallbacks, want the re-anchor with none",
			st.Recovery.CheckpointSeq, st.Recovery.CheckpointFallbacks)
	}
	if c, tot := sumBalances(t, eng3, eng3.Table("accounts")); c != 80 || tot != 800 {
		t.Fatalf("second reopen: %d rows / %d total, want 80 / 800", c, tot)
	}
}

// TestRetiredCheckpointFormatRefused: a data directory holding the
// retired checkpoints/ directory cannot be anchored, so Open refuses it
// instead of replaying a truncated WAL alone.
func TestRetiredCheckpointFormatRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints", "00000001"), 0o755); err != nil {
		t.Fatal(err)
	}
	if eng, err := Open(WithDataDir(dir)); err == nil {
		eng.Close()
		t.Fatal("Open accepted a directory of the retired checkpoint format")
	}
}

// TestTornMiddleSegmentRefusesOpen pins the hole-in-history check: a torn
// segment followed by segments holding records must fail Open instead of
// recovering over the gap.
func TestTornMiddleSegmentRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(WithDataDir(dir), WithWALSegmentSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.CreateTable("accounts", accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		insertAccount(t, eng, tbl, int64(i), 10)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Tear the tail off a middle segment.
	mid := segs[len(segs)/2]
	if err := os.Truncate(mid.Path, mid.Size-5); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(WithDataDir(dir)); err == nil {
		t.Fatal("Open recovered over a mid-history gap")
	}
}

// TestCheckpointerWithoutBackground pins that WithCheckpointInterval works
// without WithBackground — a configured interval is never a silent no-op.
func TestCheckpointerWithoutBackground(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(WithDataDir(dir), WithCheckpointInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tbl, err := eng.CreateTable("accounts", accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	insertAccount(t, eng, tbl, 1, 1)
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Checkpoint.Taken == 0 {
		if time.Now().After(deadline) {
			t.Fatal("checkpointer never ran without WithBackground")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentCreateTablePersistence pins the serialized CreateTable +
// catalog.json install: concurrent creators must all land in the durable
// catalog, and a reopened engine must know every table the WAL could
// reference.
func TestConcurrentCreateTablePersistence(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			tbl, err := eng.CreateTable(fmt.Sprintf("t%d", i), accountsSchema())
			if err != nil {
				errs <- err
				return
			}
			errs <- eng.Update(func(tx *Txn) error {
				row := tbl.NewRow()
				row.Set("id", int64(i))
				row.Set("balance", int64(i))
				_, err := tbl.Insert(tx, row)
				return err
			}, Durable())
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
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
	for i := 0; i < n; i++ {
		tbl := eng2.Table(fmt.Sprintf("t%d", i))
		if tbl == nil {
			t.Fatalf("table t%d missing after restart", i)
		}
		if c, _ := sumBalances(t, eng2, tbl); c != 1 {
			t.Fatalf("table t%d has %d rows, want 1", i, c)
		}
	}
}

// restoreOracleRow is one account's expected state.
type restoreOracleRow struct {
	owner   string // "" with null set means NULL
	null    bool
	balance int64
}

// TestRestoreInstallsBaseTuples pins the transaction-free restore: the
// checkpointed rows come back as committed base tuples (no version
// pointer, no transaction), and a WAL tail of updates, deletes and
// inserts over those restored slots replays on top of them into exactly
// the pre-crash state, indexes included.
func TestRestoreInstallsBaseTuples(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := eng.CreateTable("accounts", accountsSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("by_id", "id"); err != nil {
		t.Fatal(err)
	}
	oracle := make(map[int64]restoreOracleRow)
	slots := make(map[int64]TupleSlot)
	put := func(tx *Txn, id int64) error {
		r := restoreOracleRow{balance: id * 3}
		switch {
		case id%5 == 0:
			r.null = true
		case id%2 == 0:
			r.owner = fmt.Sprintf("o%d", id) // inline varlen
		default:
			r.owner = fmt.Sprintf("owner-with-a-long-name-%d", id) // spilled
		}
		row := tbl.NewRow()
		row.Set("id", id)
		if r.null {
			row.Set("owner", nil)
		} else {
			row.Set("owner", r.owner)
		}
		row.Set("balance", r.balance)
		slot, err := tbl.Insert(tx, row)
		if err == nil {
			oracle[id], slots[id] = r, slot
		}
		return err
	}
	const rows = 600
	for base := int64(0); base < rows; base += 100 {
		if err := eng.Update(func(tx *Txn) error {
			for id := base; id < base+100; id++ {
				if err := put(tx, id); err != nil {
					return err
				}
			}
			return nil
		}, Durable()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The WAL tail: updates (one to NULL, one from NULL), deletes and
	// inserts, each touching restored slots or the restored tail block.
	touched := map[int64]bool{}
	update := func(id int64, owner any, balance int64) {
		if err := eng.Update(func(tx *Txn) error {
			u, err := tbl.NewRowFor("owner", "balance")
			if err != nil {
				return err
			}
			u.Set("owner", owner)
			u.Set("balance", balance)
			return tbl.Update(tx, slots[id], u)
		}, Durable()); err != nil {
			t.Fatal(err)
		}
		r := restoreOracleRow{balance: balance, null: owner == nil}
		if owner != nil {
			r.owner = owner.(string)
		}
		oracle[id], touched[id] = r, true
	}
	update(3, nil, -3)
	update(10, "now-spilled-owner-name", -10)
	update(11, "short", -11)
	for _, id := range []int64{4, 20, 599} {
		if err := eng.Update(func(tx *Txn) error { return tbl.Delete(tx, slots[id]) }, Durable()); err != nil {
			t.Fatal(err)
		}
		delete(oracle, id)
	}
	for id := int64(rows); id < rows+10; id++ {
		if err := eng.Update(func(tx *Txn) error { return put(tx, id) }, Durable()); err != nil {
			t.Fatal(err)
		}
		touched[id] = true
	}
	const tailWrites = 3 + 3 + 10
	eng.Admin().SimulateCrash()

	eng2, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if rec := eng2.Stats().Recovery; rec.CheckpointRows != rows || rec.TailTxnsApplied != 16 {
		t.Fatalf("recovery = %d checkpoint rows + %d tail txns, want %d + 16", rec.CheckpointRows, rec.TailTxnsApplied, rows)
	}
	// Every transaction the bootstrap finished is the tail replay's or a
	// read-only one (index rebuild, re-anchor checkpoint): the restore
	// itself ran none.
	writes := 0
	for _, tx := range eng2.mgr.DrainCompleted() {
		writes += tx.WriteSetSize()
	}
	if writes != tailWrites {
		t.Fatalf("bootstrap transactions wrote %d records, want the tail's %d", writes, tailWrites)
	}

	tbl2 := eng2.Table("accounts")
	idx := tbl2.Index("by_id")
	reg := tbl2.DataTable.Registry()
	seen := 0
	if err := eng2.View(func(tx *Txn) error {
		if err := tbl2.Scan(tx, nil, func(slot TupleSlot, row *Row) bool {
			id := row.Int64("id")
			want, ok := oracle[id]
			got := restoreOracleRow{owner: row.String("owner"), null: row.Null("owner"), balance: row.Int64("balance")}
			if !ok || got != want {
				t.Errorf("row %d = %+v, want %+v (present %v)", id, got, want, ok)
			}
			if v := reg.BlockFor(slot).VersionPtr(slot.Offset()); v != nil && !touched[id] {
				t.Errorf("restored row %d untouched by the tail has a version pointer", id)
			}
			seen++
			return true
		}); err != nil {
			return err
		}
		out := tbl2.NewRow()
		for id := int64(0); id < rows+10; id++ {
			_, found, err := tx.GetBy(idx, out, id)
			if err != nil {
				return err
			}
			if _, want := oracle[id]; found != want || (found && out.Int64("balance") != oracle[id].balance) {
				t.Errorf("index lookup of %d: found=%v balance=%d, want present=%v", id, found, out.Int64("balance"), want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(oracle) {
		t.Fatalf("scan saw %d rows, want %d", seen, len(oracle))
	}
}
