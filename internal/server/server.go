// Package server is the mainline-serve network serving layer: an
// Arrow-native TCP server that puts the engine on the wire (ROADMAP item
// 1, paper §5). It speaks the framed two-plane protocol of wire.go —
// streaming analytical export/ingest (DoGet / DoPut) next to a compact
// transactional RPC surface (Begin/Commit/Abort, point reads and writes,
// indexed reads) — wrapped in the production machinery a real front door
// needs: per-connection and global admission control with typed
// ErrServerBusy rejection, per-request deadlines whose expiry aborts the
// underlying transaction, session reaping on disconnect, graceful drain,
// and an HTTP /metrics + /healthz sidecar rendering eng.Stats().
package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mainline"
)

// Config tunes the serving layer. The zero value is usable: every limit
// has a production-shaped default.
type Config struct {
	// Addr is the TCP listen address for the framed protocol
	// ("127.0.0.1:0" for an ephemeral port). Default ":7878".
	Addr string
	// HTTPAddr, when non-empty, serves GET /metrics and /healthz on a
	// second listener.
	HTTPAddr string
	// MaxSessions caps concurrent connections; further connects are
	// answered with ErrServerBusy and closed. Default 256.
	MaxSessions int
	// MaxInflight caps requests executing concurrently across all
	// sessions; excess requests receive ErrServerBusy immediately
	// (shed-load, never queue-and-hang). Default 64.
	MaxInflight int
	// MaxFrame bounds one frame's payload. Default DefaultMaxFrame.
	MaxFrame int
	// MaxTxnsPerSession caps open transaction handles per session.
	// Default 64.
	MaxTxnsPerSession int
	// WriteTimeout bounds each network write while streaming, so a
	// stalled client cannot pin a frozen block's read registration (or a
	// session goroutine) forever. Default 30s.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the initial magic exchange. Default 5s.
	HandshakeTimeout time.Duration
	// DebugEndpoints additionally serves net/http/pprof under
	// /debug/pprof/ and expvar under /debug/vars on the HTTP sidecar.
	// Off by default: profiling handlers on a production metrics port
	// are an opt-in.
	DebugEndpoints bool
}

func (c *Config) defaults() {
	if c.Addr == "" {
		c.Addr = ":7878"
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.MaxTxnsPerSession <= 0 {
		c.MaxTxnsPerSession = 64
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
}

// Server is the network serving layer over one engine.
type Server struct {
	eng *mainline.Engine
	cfg Config
	ctr counters
	obs *serverObs

	ln       net.Listener
	inflight chan struct{}

	mu       sync.Mutex
	sessions map[*session]struct{}

	draining atomic.Bool
	closed   atomic.Bool
	wg       sync.WaitGroup

	httpLn net.Listener
	httpWg sync.WaitGroup

	// detachStats removes this server's counters from eng.Stats() (set
	// by Listen).
	detachStats func()
}

// New creates a server over eng. Call Listen to start it.
func New(eng *mainline.Engine, cfg Config) *Server {
	cfg.defaults()
	return &Server{
		eng:      eng,
		cfg:      cfg,
		obs:      newServerObs(eng),
		inflight: make(chan struct{}, cfg.MaxInflight),
		sessions: make(map[*session]struct{}),
	}
}

// Listen binds the protocol listener (and the HTTP sidecar when
// configured), registers the server's counters with the engine, and starts
// accepting. It returns the bound protocol address.
func (s *Server) Listen() (string, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	if s.cfg.HTTPAddr != "" {
		if err := s.listenHTTP(); err != nil {
			ln.Close()
			return "", err
		}
	}
	s.detachStats = s.eng.Admin().SetServerStats(s.Stats)
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Addr returns the bound protocol address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// HTTPAddr returns the bound metrics address ("" when not configured).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Stats snapshots the server's counters and drain state.
func (s *Server) Stats() mainline.ServerStats {
	st := s.ctr.snapshot()
	st.Enabled = true
	st.Draining = s.draining.Load()
	return st
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.admit(conn)
	}
}

// admit performs the handshake and admission decision for one connection.
func (s *Server) admit(conn net.Conn) {
	defer s.wg.Done()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	deadline := time.Now().Add(s.cfg.HandshakeTimeout)
	_ = conn.SetDeadline(deadline)
	var magic [8]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		conn.Close()
		return
	}
	reject := func(err error) {
		s.ctr.sessionsRejected.Add(1)
		_ = writeFrame(conn, respErr, encodeErr(err))
		conn.Close()
	}
	if magic != wireMagic {
		if bytes.Equal(magic[:7], wireMagic[:7]) {
			// Another version of this protocol: say which, so the client
			// reports a version mismatch rather than a dropped connection.
			reject(fmt.Errorf("%w: protocol version %q, server speaks %q", ErrBadRequest, magic[:], wireMagic[:]))
			return
		}
		conn.Close()
		return
	}
	if s.draining.Load() {
		reject(ErrDraining)
		return
	}
	sess := newSession(s, conn)
	s.mu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		reject(fmt.Errorf("%w: %d sessions", ErrServerBusy, s.cfg.MaxSessions))
		return
	}
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.ctr.sessions.Add(1)
	s.ctr.sessionsTotal.Add(1)
	_ = conn.SetDeadline(time.Time{})
	if err := writeFrame(conn, respOK, nil); err != nil {
		s.dropSession(sess)
		conn.Close()
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sess.run()
	}()
}

// dropSession removes a session from the registry and releases its
// admission slot. Idempotent: only the first call for a session counts.
func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	_, present := s.sessions[sess]
	delete(s.sessions, sess)
	s.mu.Unlock()
	if present {
		s.ctr.sessions.Add(-1)
	}
}

// acquire claims a global in-flight request slot without blocking.
func (s *Server) acquire() bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

// release returns an in-flight slot.
func (s *Server) release() { <-s.inflight }

// Shutdown drains the server gracefully: stop accepting, let in-flight
// requests finish, then close every session. Sessions idle in a read are
// closed immediately (their transactions are reaped); sessions serving a
// request get until grace to finish it. Shutdown is idempotent and safe
// to call concurrently with Close.
func (s *Server) Shutdown(grace time.Duration) {
	if !s.draining.CompareAndSwap(false, true) {
		s.wg.Wait()
		return
	}
	if s.ln != nil {
		_ = s.ln.Close()
	}
	// Idle sessions sit in a blocking read; closing the connection is the
	// only way to wake them. Busy sessions are left to finish their
	// request — their loop observes draining and exits after responding.
	deadline := time.Now().Add(grace)
	for {
		s.mu.Lock()
		n := len(s.sessions)
		for sess := range s.sessions {
			if !sess.busy.Load() {
				sess.conn.Close()
			}
		}
		s.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Grace expired: force-close whatever remains.
	s.mu.Lock()
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.closeShared()
	s.wg.Wait()
}

// Close shuts the server down immediately: no grace for in-flight work.
func (s *Server) Close() {
	s.draining.Store(true)
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.mu.Lock()
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.closeShared()
	s.wg.Wait()
}

// closeShared runs the close steps common to Shutdown and Close once.
func (s *Server) closeShared() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	if s.httpLn != nil {
		_ = s.httpLn.Close()
	}
	s.httpWg.Wait()
	if s.detachStats != nil {
		s.detachStats()
	}
}

// Draining reports whether the server is refusing new work.
func (s *Server) Draining() bool { return s.draining.Load() }
