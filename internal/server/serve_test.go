package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mainline"
	"mainline/internal/arrow"
)

// startServer boots an engine + server on ephemeral ports and returns
// both with a cleanup-registered shutdown.
func startServer(t *testing.T, cfg Config) (*mainline.Engine, *Server, string) {
	t.Helper()
	eng, err := mainline.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv := New(eng, cfg)
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return eng, srv, addr
}

func mustDial(t *testing.T, addr string, opts ...DialOption) *Client {
	t.Helper()
	c, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func itemSchema() *mainline.Schema {
	return mainline.NewSchema(
		mainline.Field{Name: "id", Type: mainline.INT64},
		mainline.Field{Name: "name", Type: mainline.STRING, Nullable: true},
		mainline.Field{Name: "qty", Type: mainline.INT32},
		mainline.Field{Name: "price", Type: mainline.FLOAT64},
	)
}

func TestTransactionalPlane(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := mustDial(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := c.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("item", itemSchema()); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate CreateTable: got %v, want ErrTableExists", err)
	}
	if err := c.CreateIndex("item", "by_id", 0, "id"); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-create.
	if err := c.CreateIndex("item", "by_id", 0, "id"); err != nil {
		t.Fatalf("re-create index: %v", err)
	}
	s, err := c.Schema("item")
	if err != nil || s == nil || len(s.Fields) != 4 {
		t.Fatalf("schema: %v %v", s, err)
	}
	if s2, err := c.Schema("ghost"); err != nil || s2 != nil {
		t.Fatalf("ghost schema: %v %v", s2, err)
	}

	cols := []string{"id", "name", "qty", "price"}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var slots []uint64
	for i := 0; i < 10; i++ {
		slot, err := tx.Insert("item", cols, []any{int64(i), fmt.Sprintf("item-%d", i), int64(i * 10), float64(i) / 2})
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, slot)
	}
	// NULL value round-trip.
	nullSlot, err := tx.Insert("item", cols, []any{int64(99), nil, int64(0), 0.0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, err := c.Begin(TxReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	row, err := tx2.Select("item", slots[3])
	if err != nil {
		t.Fatal(err)
	}
	if row == nil || row.Int("id") != 3 || row.Str("name") != "item-3" || row.Int("qty") != 30 || row.Float("price") != 1.5 {
		t.Fatalf("select: %+v", row)
	}
	nrow, err := tx2.Select("item", nullSlot, "id", "name")
	if err != nil || nrow == nil {
		t.Fatalf("null select: %+v %v", nrow, err)
	}
	if nrow.Val("name") != nil {
		t.Fatalf("want NULL name, got %v", nrow.Val("name"))
	}
	got, err := tx2.GetBy("item", "by_id", []any{int64(7)}, "id", "name")
	if err != nil || got == nil || got.Str("name") != "item-7" {
		t.Fatalf("getby: %+v %v", got, err)
	}
	if miss, err := tx2.GetBy("item", "by_id", []any{int64(12345)}); err != nil || miss != nil {
		t.Fatalf("getby miss: %+v %v", miss, err)
	}
	// Engine range semantics are half-open: [2, 5) is ids 2,3,4.
	rows, more, err := tx2.RangeBy("item", "by_id", []any{int64(2)}, []any{int64(5)}, []string{"id"}, 0)
	if err != nil || more || len(rows) != 3 {
		t.Fatalf("rangeby: %d rows, more=%v, err=%v", len(rows), more, err)
	}
	rows, more, err = tx2.RangeBy("item", "by_id", []any{int64(0)}, []any{int64(9)}, []string{"id"}, 3)
	if err != nil || !more || len(rows) != 3 {
		t.Fatalf("rangeby limited: %d rows, more=%v, err=%v", len(rows), more, err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}

	// Update + Delete.
	tx3, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx3.Update("item", slots[0], []string{"qty"}, []any{int64(777)}); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Delete("item", slots[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	tx4, err := c.Begin(TxReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if row, err := tx4.Select("item", slots[0], "qty"); err != nil || row == nil || row.Int("qty") != 777 {
		t.Fatalf("post-update: %+v %v", row, err)
	}
	if row, err := tx4.Select("item", slots[1], "id"); err != nil || row != nil {
		t.Fatalf("post-delete: %+v %v", row, err)
	}
	tx4.Abort()

	// Typed engine errors cross the wire.
	if _, err := c.Begin(TxReadOnly); err != nil {
		t.Fatal(err)
	}
	txa, _ := c.Begin()
	c2 := mustDial(t, addr)
	txb, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txa.Update("item", slots[2], []string{"qty"}, []any{int64(1)}); err != nil {
		t.Fatal(err)
	}
	// Updates are pipelined: txa's reaches the server with c's next call
	// that needs an answer.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := txb.Update("item", slots[2], []string{"qty"}, []any{int64(2)}); err != nil {
		t.Fatalf("pipelined update: %v", err)
	}
	// The conflict comes back with txb's next call.
	_, err = txb.Commit()
	if !errors.Is(err, mainline.ErrWriteConflict) {
		t.Fatalf("want ErrWriteConflict across the wire, got %v", err)
	}
	txa.Abort()
	txb.Abort()

	// Unknown names.
	txe, _ := c.Begin()
	if _, err := txe.Insert("ghost", []string{"id"}, []any{int64(1)}); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("want ErrUnknownTable, got %v", err)
	}
	if _, err := txe.GetBy("item", "ghost", []any{int64(1)}); !errors.Is(err, ErrUnknownIndex) {
		t.Fatalf("want ErrUnknownIndex, got %v", err)
	}
	txe.Abort()

	// Stale handle.
	if _, err := tx3.Commit(); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("want ErrUnknownTxn on spent handle, got %v", err)
	}
}

func buildBatch(t *testing.T, lo, hi int) *mainline.RecordBatch {
	t.Helper()
	ids := arrow.NewBuilder(arrow.INT64)
	names := arrow.NewBuilder(arrow.STRING)
	qtys := arrow.NewBuilder(arrow.INT32)
	prices := arrow.NewBuilder(arrow.FLOAT64)
	for i := lo; i < hi; i++ {
		ids.AppendInt64(int64(i))
		names.AppendString(fmt.Sprintf("bulk-%d", i))
		qtys.AppendInt32(int32(i % 100))
		prices.AppendFloat64(float64(i) * 0.25)
	}
	rb, err := arrow.NewRecordBatch(itemSchema(), []*arrow.Array{ids.Finish(), names.Finish(), qtys.Finish(), prices.Finish()})
	if err != nil {
		t.Fatal(err)
	}
	return rb
}

func TestAnalyticalPlane(t *testing.T) {
	eng, srv, addr := startServer(t, Config{})
	c := mustDial(t, addr)
	if err := c.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}

	const n = 10000
	rows, err := c.DoPut("item", []*mainline.RecordBatch{
		buildBatch(t, 0, n/2), buildBatch(t, n/2, n),
	})
	if err != nil || rows != n {
		t.Fatalf("doput: %d rows, err=%v", rows, err)
	}

	// Whole-table DoGet against the hot table.
	var got int
	st, err := c.DoGet("item", nil, nil, func(rb *mainline.RecordBatch) error {
		got += rb.NumRows
		return nil
	})
	if err != nil || got != n || st.Rows != n {
		t.Fatalf("hot doget: got=%d stats=%+v err=%v", got, st, err)
	}

	// Freeze and re-export: blocks must leave zero-copy.
	if !eng.FreezeAll(0) {
		t.Fatal("freeze did not converge")
	}
	sum := int64(0)
	got = 0
	st, err = c.DoGet("item", nil, nil, func(rb *mainline.RecordBatch) error {
		idc := rb.Column("id")
		for i := 0; i < rb.NumRows; i++ {
			sum += idc.Int64(i)
		}
		got += rb.NumRows
		return nil
	})
	if err != nil || got != n {
		t.Fatalf("frozen doget: got=%d err=%v", got, err)
	}
	if st.Frozen == 0 {
		t.Fatalf("want frozen blocks on the zero-copy path, got %+v", st)
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("id sum %d, want %d", sum, want)
	}

	// Filtered + projected DoGet.
	var matched int
	_, err = c.DoGet("item", []string{"id", "name"}, &WirePred{Col: "id", Op: PredBetween, V1: int64(100), V2: int64(199)},
		func(rb *mainline.RecordBatch) error {
			namec := rb.Column("name")
			idc := rb.Column("id")
			for i := 0; i < rb.NumRows; i++ {
				if want := fmt.Sprintf("bulk-%d", idc.Int64(i)); namec.Str(i) != want {
					return fmt.Errorf("row %d: name %q, want %q", i, namec.Str(i), want)
				}
			}
			matched += rb.NumRows
			return nil
		})
	if err != nil || matched != 100 {
		t.Fatalf("filtered doget: matched=%d err=%v", matched, err)
	}

	// DoGet of a missing table is a typed error.
	if _, err := c.DoGet("ghost", nil, nil, func(*mainline.RecordBatch) error { return nil }); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("want ErrUnknownTable, got %v", err)
	}

	// Server counters saw the traffic, and the engine exposes them.
	es := eng.Stats().Server
	if !es.Enabled || es.DoGetOps < 4 || es.DoPutOps != 1 || es.RowsIngested != n || es.BytesStreamed == 0 {
		t.Fatalf("server stats: %+v", es)
	}
	_ = srv
}

func TestAdmissionControl(t *testing.T) {
	_, srv, addr := startServer(t, Config{MaxSessions: 2, MaxInflight: 1})
	c1 := mustDial(t, addr)
	_ = mustDial(t, addr)

	// Third connection: rejected with a typed error, not a hang.
	if _, err := Dial(addr); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("want ErrServerBusy at handshake, got %v", err)
	}
	if got := srv.Stats().SessionsRejected; got != 1 {
		t.Fatalf("SessionsRejected = %d", got)
	}

	// Saturate the in-flight cap (same package: grab the slot directly) —
	// the next request is shed immediately with ErrServerBusy.
	srv.inflight <- struct{}{}
	start := time.Now()
	err := c1.Ping()
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("want ErrServerBusy when in-flight cap is full, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("busy rejection blocked instead of shedding")
	}
	<-srv.inflight
	if err := c1.Ping(); err != nil {
		t.Fatalf("ping after slot release: %v", err)
	}
	if got := srv.Stats().RequestsRejected; got != 1 {
		t.Fatalf("RequestsRejected = %d", got)
	}
}

func TestDisconnectReapsTxns(t *testing.T) {
	eng, srv, addr := startServer(t, Config{MaxSessions: 1})
	c := mustDial(t, addr)
	if err := c.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("item", []string{"id"}, []any{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if n := eng.Stats().ActiveTxns; n != 1 {
		t.Fatalf("ActiveTxns before disconnect = %d", n)
	}
	// Drop the connection with the transaction open.
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.Stats().TxnsReaped == 1 && eng.Stats().ActiveTxns == 0 && srv.Stats().Sessions == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reap did not happen: %+v, active=%d", srv.Stats(), eng.Stats().ActiveTxns)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The admission slot came back: a new session fits under MaxSessions=1
	// and sees none of the aborted writes.
	c2 := mustDial(t, addr)
	tx2, err := c2.Begin(TxReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := tx2.RangeBy("item", "missing-index", nil, nil, nil, 0)
	if !errors.Is(err, ErrUnknownIndex) {
		t.Fatalf("probe: %v %v", rows, err)
	}
	tx2.Abort()
}

func TestRequestDeadlineAbortsTxn(t *testing.T) {
	eng, srv, addr := startServer(t, Config{})
	setup := mustDial(t, addr)
	if err := setup.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}
	if err := setup.CreateIndex("item", "by_id", 0, "id"); err != nil {
		t.Fatal(err)
	}
	const n = 200000
	var batches []*mainline.RecordBatch
	for lo := 0; lo < n; lo += 20000 {
		batches = append(batches, buildBatch(t, lo, lo+20000))
	}
	if _, err := setup.DoPut("item", batches); err != nil {
		t.Fatal(err)
	}

	// A 1ms deadline cannot cover a 200k-row indexed range scan; expiry
	// must abort the transaction server-side and report DeadlineHits.
	c := mustDial(t, addr, WithRequestTimeout(time.Millisecond))
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = tx.RangeBy("item", "by_id", nil, nil, []string{"id", "name", "price"}, 0)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	// The handle died with the deadline.
	if _, err := tx.Commit(); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("want ErrUnknownTxn after deadline abort, got %v", err)
	}
	if eng.Stats().ActiveTxns != 0 {
		t.Fatalf("deadline left a live transaction behind")
	}
	if srv.Stats().DeadlineHits == 0 {
		t.Fatal("DeadlineHits not counted")
	}
}

func TestDeadlineMidDoGetReleasesBlocks(t *testing.T) {
	eng, _, addr := startServer(t, Config{})
	setup := mustDial(t, addr)
	if err := setup.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}
	const n = 200000
	var batches []*mainline.RecordBatch
	for lo := 0; lo < n; lo += 20000 {
		batches = append(batches, buildBatch(t, lo, lo+20000))
	}
	if _, err := setup.DoPut("item", batches); err != nil {
		t.Fatal(err)
	}
	if !eng.FreezeAll(0) {
		t.Fatal("freeze did not converge")
	}

	c := mustDial(t, addr, WithRequestTimeout(time.Millisecond))
	_, err := c.DoGet("item", nil, nil, func(rb *mainline.RecordBatch) error {
		time.Sleep(2 * time.Millisecond) // guarantee the next block check expires
		return nil
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded mid-stream, got %v", err)
	}

	// The aborted stream must have released every in-place read
	// registration: a write (which thaws the block) must proceed.
	done := make(chan error, 1)
	go func() {
		done <- eng.Update(func(tx *mainline.Txn) error {
			tbl := eng.Table("item")
			row := tbl.NewRow()
			row.Set("id", int64(n))
			row.Set("name", "post-deadline")
			row.Set("qty", int64(1))
			row.Set("price", 1.0)
			_, err := tbl.Insert(tx, row)
			return err
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after aborted stream: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("write hung: block reader counter wedged by aborted DoGet")
	}
}

// A filtered DoGet whose predicate matches nothing never produces an
// output batch; its deadline must still fire during the scan. The table is
// left hot: a frozen zero-match scan is zone-pruned or kernel-filtered in
// microseconds, while staging 200k hot rows takes far longer than 1 ms.
func TestDeadlineFilteredDoGetNoMatch(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	setup := mustDial(t, addr)
	if err := setup.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}
	const n = 200000
	var batches []*mainline.RecordBatch
	for lo := 0; lo < n; lo += 20000 {
		batches = append(batches, buildBatch(t, lo, lo+20000))
	}
	if _, err := setup.DoPut("item", batches); err != nil {
		t.Fatal(err)
	}
	none := &WirePred{Col: "qty", Op: PredEq, V1: int64(1000)} // qty is i%100
	noBatches := func(*mainline.RecordBatch) error { return errors.New("unexpected batch") }

	st, err := setup.DoGet("item", []string{"id"}, none, noBatches)
	if err != nil || st.Rows != 0 {
		t.Fatalf("untimed zero-match DoGet: rows=%d err=%v", st.Rows, err)
	}
	c := mustDial(t, addr, WithRequestTimeout(time.Millisecond))
	if _, err := c.DoGet("item", []string{"id"}, none, noBatches); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded from a zero-match scan, got %v", err)
	}
}

func TestGracefulDrain(t *testing.T) {
	eng, srv, addr := startServer(t, Config{HTTPAddr: "127.0.0.1:0"})
	c := mustDial(t, addr)
	if err := c.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("item", []string{"id"}, []any{int64(1)}); err != nil {
		t.Fatal(err)
	}

	httpAddr := srv.HTTPAddr()
	if body, code := httpGet(t, "http://"+httpAddr+"/healthz"); code != 200 || !strings.HasPrefix(body, "ok\n") {
		t.Fatalf("healthz before drain: %d %q", code, body)
	}
	if body, code := httpGet(t, "http://"+httpAddr+"/metrics"); code != 200 || !strings.Contains(body, "mainline_server_sessions 1") {
		t.Fatalf("metrics: %d %q", code, body)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Shutdown(5 * time.Second)
	}()

	// The idle session is closed promptly and its open txn reaped.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().ActiveTxns != 0 || !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain did not reap the idle session")
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()

	// New connections are refused after drain.
	if _, err := Dial(addr, WithDialTimeout(time.Second)); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

func httpGet(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

func TestDrainingRejectsHandshake(t *testing.T) {
	_, srv, addr := startServer(t, Config{})
	// Hold the listener open but mark draining (simulates the drain
	// window before the listener close lands).
	srv.draining.Store(true)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wireMagic[:]); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := readFrame(conn, DefaultMaxFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kind != respErr {
		t.Fatalf("kind = %s", kindName(kind))
	}
	if err := DecodeRemoteError(payload); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}
	srv.draining.Store(false)
}
