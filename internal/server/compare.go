// This file (with pgwire.go, vectorized.go, rdma.go, compare_flight.go)
// implements the paper's data-export comparison layer (§5, §6.3): four
// ways to move a table out of the engine and into an analytical client,
// ordered by decreasing serialization work —
//
//	PGWire     row-oriented text protocol (PostgreSQL-style): the server
//	           formats every value, the client parses and re-columnarizes.
//	Vectorized column-major binary chunks (Raasveldt & Mühleisen's client
//	           protocol redesign): cheaper encoding, still copies twice.
//	Flight     Arrow-IPC frames: frozen blocks go to the wire as raw column
//	           buffers (zero re-encoding); the client wraps received
//	           buffers without parsing.
//	RDMA       simulated client-side RDMA: the "server" copies raw block
//	           memory straight into a client-registered region, bypassing
//	           both protocol encoding and the network stack (the paper used
//	           ConnectX-3 NICs; see DESIGN.md "Substitutions").
//
// PGWire, Vectorized, and Flight run over real TCP connections; RDMA is an
// in-process transfer because a kernel socket would reintroduce exactly the
// overheads RDMA exists to skip.

package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/txn"
)

// Protocol identifies an export wire protocol.
type Protocol byte

// Supported protocols.
const (
	ProtoPGWire Protocol = iota + 1
	ProtoVectorized
	ProtoFlight
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtoPGWire:
		return "pgwire"
	case ProtoVectorized:
		return "vectorized"
	case ProtoFlight:
		return "flight"
	default:
		return "unknown"
	}
}

// Catalog is the subset of catalog functionality the server needs.
type Catalog interface {
	Table(name string) *catalog.Table
}

// CompareServer exports tables over TCP in any supported protocol, one
// request per connection: the client sends a header naming the protocol and
// table, the server streams the table and closes. It is the protocol-
// comparison harness behind Figures 1 and 15; the production serving layer
// (Server, this package) speaks the framed two-plane protocol instead.
type CompareServer struct {
	mgr *txn.Manager
	cat Catalog

	ln   net.Listener
	wg   sync.WaitGroup
	mu   sync.Mutex
	done bool

	// Stats.
	served int
}

// NewCompareServer creates a protocol-comparison export server.
func NewCompareServer(mgr *txn.Manager, cat Catalog) *CompareServer {
	return &CompareServer{mgr: mgr, cat: cat}
}

// Listen binds to addr ("127.0.0.1:0" for an ephemeral port) and starts
// accepting. Returns the bound address.
func (s *CompareServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *CompareServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			_ = s.handle(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight exports.
func (s *CompareServer) Close() {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.mu.Unlock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.wg.Wait()
}

// request header: [proto u8][u16 nameLen][name]
func readRequest(r io.Reader) (Protocol, string, error) {
	var hdr [3]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", err
	}
	nameLen := int(binary.LittleEndian.Uint16(hdr[1:]))
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return 0, "", err
	}
	return Protocol(hdr[0]), string(name), nil
}

func writeRequest(w io.Writer, proto Protocol, table string) error {
	hdr := make([]byte, 3, 3+len(table))
	hdr[0] = byte(proto)
	binary.LittleEndian.PutUint16(hdr[1:], uint16(len(table)))
	hdr = append(hdr, table...)
	_, err := w.Write(hdr)
	return err
}

func (s *CompareServer) handle(conn net.Conn) error {
	br := bufio.NewReader(conn)
	proto, name, err := readRequest(br)
	if err != nil {
		return err
	}
	table := s.cat.Table(name)
	if table == nil {
		return fmt.Errorf("export: unknown table %q", name)
	}

	// One snapshot transaction covers the whole export; hot blocks are
	// materialized under it, frozen blocks ship in place — each encoded
	// while its block is pinned frozen.
	tx := s.mgr.Begin()
	defer s.mgr.Commit(tx, nil)
	batches := func(fn func(*arrow.RecordBatch) error) error {
		_, _, err := table.StreamBatches(tx, func(rb *arrow.RecordBatch, _ bool) error { return fn(rb) })
		return err
	}
	bw := bufio.NewWriterSize(timedWriter{conn}, 1<<16)
	switch proto {
	case ProtoPGWire:
		err = servePGWire(bw, table.Schema, batches)
	case ProtoVectorized:
		err = serveVectorized(bw, table.Schema, batches)
	case ProtoFlight:
		err = serveFlight(bw, batches)
	default:
		err = fmt.Errorf("export: unknown protocol %d", proto)
	}
	if err == nil {
		err = bw.Flush()
	}
	s.mu.Lock()
	s.served++
	s.mu.Unlock()
	return err
}

// compareWriteTimeout bounds each socket write of a CompareServer export.
// Batches are encoded while their frozen block is pinned, so a stalled
// client would otherwise hold the block's read registration — and spin
// every writer to that block in MarkHot — indefinitely.
const compareWriteTimeout = 10 * time.Second

// timedWriter sets a fresh write deadline before every write to conn.
type timedWriter struct{ conn net.Conn }

func (w timedWriter) Write(p []byte) (int, error) {
	_ = w.conn.SetWriteDeadline(time.Now().Add(compareWriteTimeout))
	return w.conn.Write(p)
}

// batchSource streams an export's record batches to fn in order; a batch
// is valid only inside fn.
type batchSource func(fn func(*arrow.RecordBatch) error) error

// Result describes one client-side fetch: what arrived, how fast, and the
// moment analysis could begin (the paper measures request-to-analysis).
type Result struct {
	Table   *arrow.Table
	Bytes   int64
	Elapsed time.Duration
}

// Throughput returns MB/s of payload delivered.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 20) / r.Elapsed.Seconds()
}

// countingReader tracks payload bytes for throughput accounting.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Fetch connects to an export server and retrieves a table with the given
// protocol, returning client-side columnar data.
func Fetch(addr string, proto Protocol, table string) (*Result, error) {
	start := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := writeRequest(conn, proto, table); err != nil {
		return nil, err
	}
	cr := &countingReader{r: bufio.NewReaderSize(conn, 1<<16)}
	var tab *arrow.Table
	switch proto {
	case ProtoPGWire:
		tab, err = fetchPGWire(cr)
	case ProtoVectorized:
		tab, err = fetchVectorized(cr)
	case ProtoFlight:
		tab, err = fetchFlight(cr)
	default:
		return nil, fmt.Errorf("export: unknown protocol %d", proto)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Table: tab, Bytes: cr.n, Elapsed: time.Since(start)}, nil
}
