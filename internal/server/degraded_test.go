package server

import (
	"errors"
	"strings"
	"syscall"
	"testing"

	"mainline"
	"mainline/internal/fault"
)

// TestDegradedAcrossTheWire trips a WAL fsync failure under a served
// engine and verifies the serving layer's failure surface: the durable
// commit that hit the failure returns ErrDegraded across the wire, later
// durable Begins and writes refuse with ErrDegraded, reads keep working,
// /healthz flips to 503 with the reason, and /metrics exposes the
// engine_degraded gauge.
func TestDegradedAcrossTheWire(t *testing.T) {
	inj := fault.NewInjector(fault.OS{}, 1)
	inj.AddRule(fault.Rule{Op: fault.OpSync, Path: "wal-", Count: 1, Err: syscall.EIO})
	_, srv, addr := startServerOpts(t, Config{HTTPAddr: "127.0.0.1:0"},
		mainline.WithDataDir(t.TempDir()), mainline.WithFaultFS(inj))
	c := mustDial(t, addr)
	if err := c.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}
	cols := []string{"id", "name", "qty", "price"}

	// Healthy first: probes report 200.
	if body, code := httpGet(t, "http://"+srv.HTTPAddr()+"/healthz"); code != 200 {
		t.Fatalf("healthz before failure: %d %q", code, body)
	}

	// The durable commit whose fsync fails must come back ErrDegraded —
	// never acked.
	tx, err := c.Begin(TxDurable)
	if err != nil {
		t.Fatal(err)
	}
	var slot uint64
	if slot, err = tx.Insert("item", cols, []any{int64(1), "a", int64(1), 1.0}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); !errors.Is(err, mainline.ErrDegraded) {
		t.Fatalf("durable commit over failed fsync = %v, want ErrDegraded", err)
	}

	// Durable Begin refuses. Begin is pipelined, so the refusal comes
	// back with the transaction's first call, and Abort then has nothing
	// left to roll back.
	dtx, err := c.Begin(TxDurable)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dtx.Select("item", slot, "id"); !errors.Is(err, mainline.ErrDegraded) {
		t.Fatalf("Begin(TxDurable) = %v, want ErrDegraded", err)
	}
	if err := dtx.Abort(); err != nil {
		t.Fatalf("Abort after a refused Begin = %v, want nil", err)
	}

	// Writes in a non-durable transaction refuse at the table op.
	wtx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wtx.Insert("item", cols, []any{int64(2), "b", int64(1), 1.0}); !errors.Is(err, mainline.ErrDegraded) {
		t.Fatalf("insert on degraded engine = %v, want ErrDegraded", err)
	}
	if err := wtx.Abort(); err != nil {
		t.Fatal(err)
	}

	// Reads keep serving the intact in-memory state.
	rtx, err := c.Begin(TxReadOnly)
	if err != nil {
		t.Fatalf("read-only Begin on degraded engine = %v", err)
	}
	if _, err := rtx.Select("item", slot); err != nil {
		t.Fatalf("select on degraded engine = %v", err)
	}
	if err := rtx.Abort(); err != nil {
		t.Fatal(err)
	}

	// /healthz: 503, status line "degraded", reason carries the cause.
	body, code := httpGet(t, "http://"+srv.HTTPAddr()+"/healthz")
	if code != 503 {
		t.Fatalf("healthz on degraded engine: %d %q", code, body)
	}
	if !strings.HasPrefix(body, "degraded\n") || !strings.Contains(body, "degraded_reason ") {
		t.Fatalf("healthz body missing degraded status/reason:\n%s", body)
	}

	// /metrics: the gauge flips to 1.
	metrics, code := httpGet(t, "http://"+srv.HTTPAddr()+"/metrics")
	if code != 200 || !strings.Contains(metrics, "mainline_engine_degraded 1") {
		t.Fatalf("metrics missing engine_degraded gauge (code %d)", code)
	}

	// /debug/slowops captured the transition span.
	slowops, _ := httpGet(t, "http://"+srv.HTTPAddr()+"/debug/slowops")
	if !strings.Contains(slowops, "degraded") {
		t.Fatalf("slowops missing degraded span:\n%s", slowops)
	}
}
