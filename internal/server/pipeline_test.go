package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mainline"
)

// seedItems commits n item rows (id i, qty i) through c and returns their
// slots; the table gets a by_id index.
func seedItems(t *testing.T, c *Client, n int) []uint64 {
	t.Helper()
	if err := c.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("item", "by_id", 0, "id"); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]uint64, n)
	for i := range slots {
		if slots[i], err = tx.Insert("item", []string{"id", "name", "qty", "price"},
			[]any{int64(i), fmt.Sprintf("item-%d", i), int64(i), 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return slots
}

// qtyOf reads one row's qty in a fresh read-only transaction.
func qtyOf(t *testing.T, c *Client, slot uint64) int64 {
	t.Helper()
	tx, err := c.Begin(TxReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	row, err := tx.Select("item", slot, "qty")
	if err != nil || row == nil {
		t.Fatalf("select slot %d: %+v %v", slot, row, err)
	}
	return row.Int("qty")
}

// TestPipelinedWriteConflictAborts: a transaction updates two rows and
// the second conflicts. Both updates are pipelined, so the client learns
// of the conflict only at Commit — by then the first update must already
// be rolled back on the server, or Commit would publish half the
// transaction.
func TestPipelinedWriteConflictAborts(t *testing.T) {
	eng, _, addr := startServer(t, Config{})
	c1 := mustDial(t, addr)
	slots := seedItems(t, c1, 2)
	c2 := mustDial(t, addr)

	holder, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Update("item", slots[1], []string{"qty"}, []any{int64(-1)}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil { // send the holder's write
		t.Fatal(err)
	}

	tx, err := c1.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("item", slots[0], []string{"qty"}, []any{int64(100)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("item", slots[1], []string{"qty"}, []any{int64(101)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); !errors.Is(err, mainline.ErrWriteConflict) {
		t.Fatalf("Commit after a conflicting pipelined update = %v, want ErrWriteConflict", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatalf("Abort after Commit: %v", err)
	}
	if n := eng.Stats().ActiveTxns; n != 1 {
		t.Fatalf("ActiveTxns = %d with only the holder open", n)
	}
	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	for i, slot := range slots {
		if got := qtyOf(t, mustDial(t, addr), slot); got != int64(i) {
			t.Errorf("row %d: qty %d after the failed transaction, want %d", i, got, i)
		}
	}
	if n := eng.Stats().ActiveTxns; n != 0 {
		t.Fatalf("ActiveTxns = %d, want 0", n)
	}
}

// TestPipelinedTombstone: after a failed pipelined write every call on
// the transaction returns that error, Abort returns nil, and the
// tombstone holds a session handle until it is dropped.
func TestPipelinedTombstone(t *testing.T) {
	_, _, addr := startServer(t, Config{MaxTxnsPerSession: 2})
	c := mustDial(t, addr)
	slots := seedItems(t, c, 1)

	dead, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := dead.Update("ghost", slots[0], []string{"qty"}, []any{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := dead.GetBy("item", "by_id", []any{int64(0)}, "qty"); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("GetBy after failed update = %v, want ErrUnknownTable", err)
	}
	if err := dead.Delete("item", slots[0]); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("Delete after failed update = %v, want ErrUnknownTable", err)
	}

	// The tombstone and one live handle fill the cap of 2.
	live, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	over, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := over.Select("item", slots[0]); !errors.Is(err, ErrTooManyTxns) {
		t.Fatalf("first call of a Begin over the cap = %v, want ErrTooManyTxns", err)
	}
	if err := over.Abort(); err != nil {
		t.Fatalf("Abort after a refused Begin = %v, want nil", err)
	}
	if err := dead.Abort(); err != nil {
		t.Fatalf("Abort of a tombstone = %v, want nil", err)
	}
	// Dropping the tombstone freed its handle.
	again, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := again.Select("item", slots[0]); err != nil {
		t.Fatalf("Begin after the tombstone was dropped: %v", err)
	}
	again.Abort()
	if _, err := live.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedReadYourWrites: a read after a pipelined write in the same
// transaction sees it, and the write commits.
func TestPipelinedReadYourWrites(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := mustDial(t, addr)
	slots := seedItems(t, c, 2)

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("item", slots[0], []string{"qty"}, []any{int64(42)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("item", slots[1]); err != nil {
		t.Fatal(err)
	}
	row, err := tx.GetBy("item", "by_id", []any{int64(0)}, "qty")
	if err != nil || row == nil || row.Int("qty") != 42 {
		t.Fatalf("GetBy after pipelined Update: %+v %v, want qty 42", row, err)
	}
	if row, err := tx.GetBy("item", "by_id", []any{int64(1)}, "qty"); err != nil || row != nil {
		t.Fatalf("GetBy after pipelined Delete: %+v %v, want no row", row, err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := qtyOf(t, c, slots[0]); got != 42 {
		t.Fatalf("committed qty %d, want 42", got)
	}
}

// TestPipelinedBlindWriteLoop issues 10 000 updates with no read between
// them. Without the pending-reply cap the client would buffer every reply
// unread; the loop must neither deadlock nor hold more than maxPending.
func TestPipelinedBlindWriteLoop(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := mustDial(t, addr)
	slots := seedItems(t, c, 1)

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	name := strings.Repeat("x", 256)
	const n = 10000
	for i := 1; i <= n; i++ {
		if err := tx.Update("item", slots[0], []string{"name", "qty"}, []any{name, int64(i)}); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if len(c.pending) > maxPending {
			t.Fatalf("%d pending replies, cap %d", len(c.pending), maxPending)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := qtyOf(t, c, slots[0]); got != n {
		t.Fatalf("qty %d after the loop, want %d", got, n)
	}
}

// TestPipelinedSharedClient: goroutines share one Client and interleave
// transactions on it; every other transaction also writes a row another
// connection holds. Each deferred conflict must land on the transaction
// that caused it and on no other.
func TestPipelinedSharedClient(t *testing.T) {
	const workers, rounds = 4, 100
	_, _, addr := startServer(t, Config{})
	c := mustDial(t, addr)
	slots := seedItems(t, c, workers+1)
	hot := slots[workers]

	holder, err := mustDial(t, addr).Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Update("item", hot, []string{"qty"}, []any{int64(-1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Select("item", hot, "qty"); err != nil { // send the write
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	committed := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				conflict := i%2 == 0
				v := int64(w*1000000 + i)
				tx, err := c.Begin()
				if err != nil {
					t.Errorf("worker %d: begin: %v", w, err)
					return
				}
				if err := tx.Update("item", slots[w], []string{"qty"}, []any{v}); err != nil {
					t.Errorf("worker %d: update: %v", w, err)
					return
				}
				if conflict {
					if err := tx.Update("item", hot, []string{"qty"}, []any{v}); err != nil {
						t.Errorf("worker %d: hot update: %v", w, err)
						return
					}
				}
				row, err := tx.Select("item", slots[w], "qty")
				switch {
				case conflict && !errors.Is(err, mainline.ErrWriteConflict):
					t.Errorf("worker %d round %d: select after conflict = %v, want ErrWriteConflict", w, i, err)
				case !conflict && (err != nil || row == nil || row.Int("qty") != v):
					t.Errorf("worker %d round %d: select = %+v %v, want qty %d", w, i, row, err, v)
				}
				_, err = tx.Commit()
				switch {
				case conflict && !errors.Is(err, mainline.ErrWriteConflict):
					t.Errorf("worker %d round %d: commit = %v, want ErrWriteConflict", w, i, err)
				case !conflict && err != nil:
					t.Errorf("worker %d round %d: commit = %v", w, i, err)
				case !conflict:
					committed[w] = v
				}
			}
		}()
	}
	wg.Wait()
	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if got := qtyOf(t, c, slots[w]); got != committed[w] {
			t.Errorf("worker %d: qty %d, want last commit %d", w, got, committed[w])
		}
	}
}

// TestPipelinedBurstOneWrite: a Begin sent with the GetBy that follows it
// is answered in one socket write carrying both replies, recorded in the
// responses-per-write histogram that /metrics exposes.
func TestPipelinedBurstOneWrite(t *testing.T) {
	_, srv, addr := startServer(t, Config{HTTPAddr: "127.0.0.1:0"})
	c := mustDial(t, addr)
	seedItems(t, c, 1)

	before := srv.obs.respsPerWrite.Snapshot()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if row, err := tx.GetBy("item", "by_id", []any{int64(0)}, "qty"); err != nil || row == nil {
		t.Fatalf("getby: %+v %v", row, err)
	}
	after := srv.obs.respsPerWrite.Snapshot()
	if writes, resps := after.Count-before.Count, after.Sum-before.Sum; writes != 1 || resps != 2 {
		t.Fatalf("Begin+GetBy went out in %d writes carrying %d responses, want 1 write with 2", writes, resps)
	}
	tx.Abort()

	body, code := httpGet(t, "http://"+srv.HTTPAddr()+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	series, types := parseProm(t, body)
	checkHistograms(t, series, types)
	const fam = "mainline_server_responses_per_write"
	if types[fam] != "histogram" {
		t.Fatalf("%s: type %q, want histogram", fam, types[fam])
	}
	for _, s := range series {
		if s.name == fam+"_count" && s.value > 0 {
			return
		}
	}
	t.Fatalf("%s: no samples in /metrics", fam)
}
