// Command mainline-serve runs the engine behind its Arrow-native network
// serving layer: the framed two-plane protocol (transactional RPC +
// streaming DoGet/DoPut export) on -addr, and the /metrics + /healthz +
// /debug/slowops operational sidecar on -http (-debug adds pprof and
// expvar; -slow-op tunes the slow-op capture threshold). SIGTERM or SIGINT drains gracefully:
// accepting stops, in-flight requests get -grace to finish, leaked
// transactions are reaped, then the engine (and its WAL) closes cleanly.
// With -data the engine checkpoints every checkpointInterval, which
// truncates the WAL and bounds what a restart replays.
//
//	mainline-serve -addr :7878 -http :7879 -data /var/lib/mainline
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mainline"
	"mainline/internal/server"
)

// checkpointInterval is how often a -data daemon checkpoints.
const checkpointInterval = 10 * time.Second

func main() {
	var (
		addr         = flag.String("addr", ":7878", "protocol listen address")
		httpAddr     = flag.String("http", ":7879", "metrics/health listen address (empty = disabled)")
		dataDir      = flag.String("data", "", "durable data directory (empty = in-memory)")
		maxSessions  = flag.Int("max-sessions", 256, "max concurrent sessions")
		maxInflight  = flag.Int("max-inflight", 64, "max concurrently executing requests")
		maxTxns      = flag.Int("max-txns", 64, "max open transactions per session")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-write network timeout while streaming")
		grace        = flag.Duration("grace", 10*time.Second, "drain grace on SIGTERM")
		debug        = flag.Bool("debug", false, "serve net/http/pprof and expvar on the -http sidecar")
		slowOp       = flag.Duration("slow-op", 0, "slow-op capture threshold for /debug/slowops (0 = 100ms default; 1ns captures everything)")
	)
	flag.Parse()

	opts := []mainline.Option{mainline.WithBackground()}
	if *dataDir != "" {
		opts = append(opts, mainline.WithDataDir(*dataDir), mainline.WithCheckpointInterval(checkpointInterval))
	}
	if *slowOp != 0 {
		opts = append(opts, mainline.WithSlowOpThreshold(*slowOp))
	}
	eng, err := mainline.Open(opts...)
	if err != nil {
		log.Fatalf("open engine: %v", err)
	}

	srv := server.New(eng, server.Config{
		Addr:              *addr,
		HTTPAddr:          *httpAddr,
		MaxSessions:       *maxSessions,
		MaxInflight:       *maxInflight,
		MaxTxnsPerSession: *maxTxns,
		WriteTimeout:      *writeTimeout,
		DebugEndpoints:    *debug,
	})
	bound, err := srv.Listen()
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	if h := srv.HTTPAddr(); h != "" {
		log.Printf("serving on %s (metrics on http://%s/metrics)", bound, h)
	} else {
		log.Printf("serving on %s", bound)
	}
	if *dataDir != "" {
		rs := eng.Stats().Recovery
		if rs.Bootstrapped {
			log.Printf("recovered data dir %s: checkpoint seq %d, %d WAL txns replayed, %d indexes rebuilt",
				*dataDir, rs.CheckpointSeq, rs.TailTxnsApplied, rs.IndexesRebuilt)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	s := <-sig
	log.Printf("%s: draining (grace %s)...", s, *grace)
	srv.Shutdown(*grace)
	st := srv.Stats()
	log.Printf("drained: %d sessions served, %d requests, %d txns reaped",
		st.SessionsTotal, st.Requests, st.TxnsReaped)
	if err := eng.Close(); err != nil {
		log.Fatalf("close engine: %v", err)
	}
	log.Printf("engine closed cleanly")
}
