package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"mainline/internal/obs"
)

// The HTTP sidecar serves the endpoints an operator points probes at:
// GET /healthz (200 while serving, 503 while draining — so a load balancer
// stops routing before the drain grace expires — with the engine's health
// summary in the body), GET /metrics (Prometheus text exposition rendered
// from eng.Stats() and eng.Health() plus the engine's histogram/duty
// registry), and GET /debug/slowops (the captured slow-op spans as JSON,
// newest first).
// With Config.DebugEndpoints, net/http/pprof and expvar are mounted too.

func (s *Server) listenHTTP() error {
	ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
	if err != nil {
		return err
	}
	s.httpLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.serveHealthz)
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	mux.HandleFunc("GET /debug/slowops", s.serveSlowOps)
	if s.cfg.DebugEndpoints {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.Handle("GET /debug/vars", expvar.Handler())
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.httpWg.Add(1)
	go func() {
		defer s.httpWg.Done()
		_ = srv.Serve(ln)
	}()
	return nil
}

// serveHealthz answers liveness probes. The status line
// ("ok"/"draining"/"degraded") drives the 200/503 decision; the rest of
// the body is the engine's health summary — how far durability and
// reclamation trail the clock — for an operator reading the probe by
// hand. A degraded engine (WAL failure, sealed read-only) reports 503
// with the root cause so load balancers stop routing writes while an
// operator can still read the reason.
func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	h := s.eng.Health()
	status := "ok"
	switch {
	case h.Degraded:
		w.WriteHeader(http.StatusServiceUnavailable)
		status = "degraded"
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		status = "draining"
	}
	fmt.Fprintln(w, status)
	if h.Degraded {
		fmt.Fprintf(w, "degraded_reason %s\n", h.DegradedReason)
	}
	fmt.Fprintf(w, "wal_truncation_lag %d\n", h.WALTruncationLag)
	fmt.Fprintf(w, "last_checkpoint_age_seconds %g\n", h.LastCheckpointAge.Seconds())
	fmt.Fprintf(w, "gc_watermark_lag %d\n", h.GCWatermarkLag)
	fmt.Fprintf(w, "slow_ops_captured %d\n", h.SlowOps)
}

// serveSlowOps renders the engine's slow-op trace ring as JSON, newest
// span first.
func (s *Server) serveSlowOps(w http.ResponseWriter, _ *http.Request) {
	spans := s.eng.SlowOps()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(spans)
}

// serveMetrics renders the engine's Stats (with this server's own counters
// as Stats.Server) and Health in the Prometheus text exposition format,
// the series names coming from their metric tags, followed by the
// engine's observability registry: every latency/size histogram as a
// _bucket/_sum/_count family plus the duty-cycle and slow-op series.
func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	st.Server = s.Stats()
	var b strings.Builder
	obs.WriteStats(&b, st)
	obs.WriteStats(&b, s.eng.Health())
	s.eng.Admin().Obs().WritePrometheus(&b)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
