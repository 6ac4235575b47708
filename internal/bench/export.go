package bench

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"mainline"
	"mainline/client"
	"mainline/internal/arrow"
	"mainline/internal/server"
)

// The export transports of Figures 1 and 15 (§5, §6.3): four ways to move
// a table out of the engine and into an analytical client, ordered by
// decreasing serialization work —
//
//	PGWire     row-oriented text protocol (PostgreSQL-style): the server
//	           formats every value, the client parses and re-columnarizes.
//	Vectorized column-major binary chunks (Raasveldt & Mühleisen's client
//	           protocol redesign): cheaper encoding, still copies twice.
//	Flight     the serving layer's DoGet (internal/server): frozen blocks
//	           go to the socket as their own column buffers; the client
//	           wraps the received buffers without parsing.
//	RDMA       simulated client-side RDMA: the "server" copies raw block
//	           memory straight into a client-registered region, bypassing
//	           both protocol encoding and the network stack (the paper used
//	           ConnectX-3 NICs; see DESIGN.md "Substitutions").
//
// PGWire and Vectorized exist only as the comparison's strawmen. Each of
// their fetches serves one table over one fresh loopback TCP connection,
// so every column crosses the same kind of socket as a DoGet. RDMA is an
// in-process transfer because a kernel socket would reintroduce exactly
// the overheads RDMA exists to skip. Every transport reads the table
// through Table.ExportBatches.

// protocol names an export transport that runs over a socket.
type protocol int

const (
	protoPGWire protocol = iota
	protoVectorized
	protoFlight
)

func (p protocol) String() string {
	switch p {
	case protoPGWire:
		return "pgwire"
	case protoVectorized:
		return "vectorized"
	default:
		return "flight"
	}
}

// fetched is what one client-side fetch delivered: the columns, the
// payload bytes, and the time from connecting to holding columns an
// analysis can use (the paper measures request-to-analysis).
type fetched struct {
	tab     *arrow.Table
	bytes   int64
	elapsed time.Duration
}

// exporter serves one engine's tables through every socket transport:
// Flight through a serving-layer Server, the strawmen over loopback.
type exporter struct {
	eng  *mainline.Engine
	srv  *server.Server
	addr string
}

// newExporter starts a serving layer over eng on an ephemeral port.
func newExporter(eng *mainline.Engine) (*exporter, error) {
	srv := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Listen()
	if err != nil {
		return nil, err
	}
	return &exporter{eng: eng, srv: srv, addr: addr}, nil
}

func (x *exporter) close() { x.srv.Close() }

// fetch retrieves the named table with protocol p.
func (x *exporter) fetch(p protocol, table string) (*fetched, error) {
	switch p {
	case protoPGWire:
		return fetchOverLoopback(x.eng, table, servePGWire, fetchPGWire)
	case protoVectorized:
		return fetchOverLoopback(x.eng, table, serveVectorized, fetchVectorized)
	default:
		return x.fetchFlight(table)
	}
}

// fetchFlight pulls the table with one DoGet on a fresh client connection.
func (x *exporter) fetchFlight(table string) (*fetched, error) {
	start := time.Now()
	c, err := client.Dial(x.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	tab := &arrow.Table{}
	st, err := c.DoGet(table, nil, nil, func(rb *mainline.RecordBatch) error {
		if tab.Schema == nil {
			tab.Schema = rb.Schema
		}
		tab.Batches = append(tab.Batches, rb)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &fetched{tab: tab, bytes: st.Bytes, elapsed: time.Since(start)}, nil
}

// batchSource streams an export's record batches to fn in order; a batch
// is valid only inside fn.
type batchSource func(fn func(*arrow.RecordBatch) error) error

// encoder writes a table in a strawman protocol; decoder reads it back
// into client-side columns.
type (
	encoder func(w io.Writer, schema *arrow.Schema, batches batchSource) error
	decoder func(r io.Reader) (*arrow.Table, error)
)

// fetchOverLoopback exports table through enc on one end of a fresh
// loopback TCP connection and decodes it with dec on the other.
func fetchOverLoopback(eng *mainline.Engine, table string, enc encoder, dec decoder) (*fetched, error) {
	tbl := eng.Table(table)
	if tbl == nil {
		return nil, fmt.Errorf("export: unknown table %q", table)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() { served <- serveOnce(ln, eng, tbl, enc) }()

	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // stops the pending Accept
		<-served
		return nil, err
	}
	cr := &countingReader{r: bufio.NewReaderSize(conn, 1<<16)}
	tab, err := dec(cr)
	elapsed := time.Since(start)
	conn.Close() // unblocks a server still writing after a decode error
	if serr := <-served; serr != nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return &fetched{tab: tab, bytes: cr.n, elapsed: elapsed}, nil
}

// serveOnce accepts one connection and writes the table to it with enc,
// from one read-only snapshot.
func serveOnce(ln net.Listener, eng *mainline.Engine, tbl *mainline.Table, enc encoder) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 1<<16)
	err = eng.View(func(tx *mainline.Txn) error {
		return enc(bw, tbl.Schema, func(fn func(*arrow.RecordBatch) error) error {
			_, _, err := tbl.ExportBatches(tx, func(rb *arrow.RecordBatch, _ bool) error { return fn(rb) })
			return err
		})
	})
	if err != nil {
		return err
	}
	return bw.Flush()
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

// Simulated client-side RDMA (§5 "Shipping Data with RDMA"). With real
// hardware the server's NIC writes block memory directly into a
// client-registered buffer: no protocol encoding, no socket, no extra
// copies, and the client CPU is idle during the transfer. rdmaExport
// models that data path in-process: it copies each block's raw column
// buffers into the client's pre-registered region. Hot blocks must still
// be materialized transactionally first — the same caveat the paper notes
// for every export path.

// rdmaClient owns a registered memory region the server writes into.
type rdmaClient struct{ region []byte }

func newRDMAClient(capacity int) *rdmaClient {
	return &rdmaClient{region: make([]byte, capacity)}
}

// rdmaExport copies tbl into the client's registered region. The returned
// arrays alias the client region — zero further copies, like pyarrow
// mapping a Flight/RDMA buffer. Each frozen block is copied while the
// export pins it frozen, so the transfer is a consistent snapshot.
func rdmaExport(eng *mainline.Engine, tbl *mainline.Table, client *rdmaClient) (*fetched, error) {
	start := time.Now()

	// A real client registers one large region with the NIC before issuing
	// reads. A transfer that outgrows it registers a larger one for the
	// rest (arrays already placed keep aliasing the old region), so a
	// client reused across exports pays that once.
	written := int64(0)
	region := client.region[:0]
	place := func(src []byte) []byte {
		if len(src) == 0 {
			return nil
		}
		if len(region)+len(src) > cap(region) {
			region = make([]byte, 0, max(2*cap(region), len(src)))
		}
		off := len(region)
		region = append(region, src...)
		written += int64(len(src))
		return region[off : off+len(src) : off+len(src)]
	}

	out := &arrow.Table{Schema: tbl.Schema}
	err := eng.View(func(tx *mainline.Txn) error {
		_, _, err := tbl.ExportBatches(tx, func(rb *arrow.RecordBatch, _ bool) error {
			cols := make([]*arrow.Array, len(rb.Columns))
			for i, c := range rb.Columns {
				nc := &arrow.Array{
					Type:      c.Type,
					Length:    c.Length,
					NullCount: c.NullCount,
					Validity:  place(c.Validity),
					Offsets:   place(c.Offsets),
					Values:    place(c.Values),
				}
				if c.Dict != nil {
					nc.Dict = &arrow.Array{
						Type:    c.Dict.Type,
						Length:  c.Dict.Length,
						Offsets: place(c.Dict.Offsets),
						Values:  place(c.Dict.Values),
					}
				}
				cols[i] = nc
			}
			nrb, err := arrow.NewRecordBatch(rb.Schema, cols)
			if err != nil {
				return err
			}
			if len(out.Batches) == 0 {
				out.Schema = rb.Schema
			}
			out.Batches = append(out.Batches, nrb)
			return nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	client.region = region[:cap(region)]
	return &fetched{tab: out, bytes: written, elapsed: time.Since(start)}, nil
}
