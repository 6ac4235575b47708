package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mainline"
	"mainline/internal/arrow"
)

// Client is the Go client for the mainline-serve framed protocol. One
// client owns one connection. Begin, Tx.Update and Tx.Delete are
// pipelined: they are buffered, not sent, and the next call that needs an
// answer sends them with its own request and reads their replies first
// (see "Pipelining" in wire.go). A Client is safe for concurrent use, but
// calls queue on its one connection; open more clients for parallelism —
// that is the unit the server's admission control counts.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte

	// lastTx is the last transaction handle handed out.
	lastTx uint64
	// pending holds, in request order, the transaction of each pipelined
	// request whose reply has not been read.
	pending []*Tx

	maxFrame   int
	reqTimeout time.Duration
	closed     bool
}

// maxPending caps unread pipelined replies; reaching it forces a drain. A
// long run of blind writes would otherwise fill the socket buffers both
// ways: the server blocks writing replies nobody reads and stops reading,
// while the client blocks writing requests.
const maxPending = 32

// DialOption configures Dial.
type DialOption func(*dialCfg)

type dialCfg struct {
	dialTimeout time.Duration
	reqTimeout  time.Duration
	maxFrame    int
}

// WithDialTimeout bounds the TCP connect + handshake (default 5s).
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialCfg) { c.dialTimeout = d }
}

// WithRequestTimeout attaches a deadline to every request: the server
// aborts work (and the transaction it was touching) when the deadline
// passes. Zero means no deadline.
func WithRequestTimeout(d time.Duration) DialOption {
	return func(c *dialCfg) { c.reqTimeout = d }
}

// WithMaxFrame overrides the largest frame the client will accept.
func WithMaxFrame(n int) DialOption {
	return func(c *dialCfg) { c.maxFrame = n }
}

// Dial connects and performs the handshake. A server at capacity (or
// draining) rejects here with an error unwrapping to ErrServerBusy (or
// ErrDraining).
func Dial(addr string, opts ...DialOption) (*Client, error) {
	cfg := dialCfg{dialTimeout: 5 * time.Second, maxFrame: DefaultMaxFrame}
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := net.DialTimeout("tcp", addr, cfg.dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	_ = conn.SetDeadline(time.Now().Add(cfg.dialTimeout))
	c := &Client{
		conn:       conn,
		br:         bufio.NewReaderSize(conn, 1<<16),
		bw:         bufio.NewWriterSize(conn, 1<<16),
		maxFrame:   cfg.maxFrame,
		reqTimeout: cfg.reqTimeout,
	}
	if _, err := conn.Write(wireMagic[:]); err != nil {
		conn.Close()
		return nil, err
	}
	kind, payload, err := c.readResp()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if kind != respOK {
		conn.Close()
		return nil, fmt.Errorf("client: unexpected handshake frame %s", kindName(kind))
	}
	_ = payload
	_ = conn.SetDeadline(time.Time{})
	return c, nil
}

// Close tears the connection down. Open transactions on this client are
// reaped (aborted) server-side.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// newReq starts a request payload with the deadline prefix.
func (c *Client) newReq() wbuf {
	var w wbuf
	ms := uint32(0)
	if c.reqTimeout > 0 {
		ms = uint32(c.reqTimeout / time.Millisecond)
		if ms == 0 {
			ms = 1
		}
	}
	w.u32(ms)
	return w
}

// readResp reads one frame, decoding respErr payloads into errors.
func (c *Client) readResp() (byte, []byte, error) {
	kind, payload, err := readFrame(c.br, c.maxFrame, c.buf)
	if err != nil {
		return 0, nil, err
	}
	if cap(payload) > cap(c.buf) {
		c.buf = payload[:0]
	}
	if kind == respErr {
		return kind, nil, DecodeRemoteError(payload)
	}
	return kind, payload, nil
}

// pipeline writes a request of tx whose reply the caller does not wait
// for. The next drain reads the reply and records a failure on tx.
func (c *Client) pipeline(tx *Tx, reqKind byte, payload []byte) error {
	if c.closed {
		return net.ErrClosed
	}
	if len(c.pending) >= maxPending {
		if err := c.drain(); err != nil {
			return err
		}
	}
	if err := writeFrame(c.bw, reqKind, payload); err != nil {
		return err
	}
	c.pending = append(c.pending, tx)
	return nil
}

// drain flushes the buffered requests and reads the pending replies in
// order, recording each failure on its own transaction (first error
// wins). It returns an error only when the connection failed.
func (c *Client) drain() error {
	err := c.bw.Flush()
	for _, tx := range c.pending {
		var kind byte
		if err == nil {
			kind, _, err = c.readResp()
		}
		rerr := err
		if rerr == nil && kind != respOK {
			rerr = fmt.Errorf("client: got %s, want %s", kindName(kind), kindName(respOK))
		}
		if rerr != nil && tx.err == nil {
			tx.err = rerr
		}
		if kind == respErr {
			err = nil // a remote error leaves the stream in sync
		}
	}
	clear(c.pending)
	c.pending = c.pending[:0]
	return err
}

// roundTrip sends one request frame and reads its response, asserting the
// response kind; for requests whose response carries no payload.
func (c *Client) roundTrip(reqKind byte, payload []byte, wantKind byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.roundTripLocked(reqKind, payload, wantKind)
	return err
}

// roundTripLocked sends the request with every pipelined one before it,
// drains their replies and reads its own. The returned payload aliases
// the client's read buffer: decode it before releasing c.mu.
func (c *Client) roundTripLocked(reqKind byte, payload []byte, wantKind byte) ([]byte, error) {
	if c.closed {
		return nil, net.ErrClosed
	}
	if err := writeFrame(c.bw, reqKind, payload); err != nil {
		return nil, err
	}
	if err := c.drain(); err != nil {
		return nil, err
	}
	kind, resp, err := c.readResp()
	if err != nil {
		return nil, err
	}
	if kind != wantKind {
		return nil, fmt.Errorf("client: got %s, want %s", kindName(kind), kindName(wantKind))
	}
	return resp, nil
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	w := c.newReq()
	return c.roundTrip(reqPing, w.b, respOK)
}

// CreateTable creates a table (error unwraps to ErrTableExists when the
// name is taken).
func (c *Client) CreateTable(name string, schema *mainline.Schema) error {
	w := c.newReq()
	w.str(name)
	if err := w.schema(schema); err != nil {
		return err
	}
	return c.roundTrip(reqCreateTable, w.b, respOK)
}

// CreateIndex declares an engine-managed index (sharded when shards > 0).
// Re-creating an index that already exists is an idempotent success.
func (c *Client) CreateIndex(table, index string, shards int, cols ...string) error {
	w := c.newReq()
	w.str(table)
	w.str(index)
	w.u16(uint16(shards))
	if err := w.strs(cols); err != nil {
		return err
	}
	return c.roundTrip(reqCreateIndex, w.b, respOK)
}

// Schema fetches a table's schema, nil when the table does not exist.
func (c *Client) Schema(table string) (*mainline.Schema, error) {
	w := c.newReq()
	w.str(table)
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTripLocked(reqSchema, w.b, respSchema)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: resp}
	if r.u8() == 0 {
		return nil, r.done()
	}
	s := r.schema()
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- Transactions ------------------------------------------------------------

// TxOption configures Begin.
type TxOption byte

const (
	// TxReadOnly begins a read-only transaction.
	TxReadOnly TxOption = 1
	// TxDurable makes the commit wait for WAL fsync.
	TxDurable TxOption = 2
)

// Tx is a server-side transaction handle. All calls must go through the
// client that began it. Begin, Update and Delete only queue their
// requests; when one of them fails on the server, the transaction's next
// call returns that error — Commit included — and Abort returns nil,
// because the server has already rolled the transaction back.
type Tx struct {
	c    *Client
	id   uint64
	done bool
	// err is the first failure of a pipelined request; guarded by c.mu.
	err error
}

// Begin opens a transaction on the server. The request is pipelined, so
// a server-side failure (ErrTooManyTxns, ErrDegraded on a durable Begin)
// is returned by the transaction's first call.
func (c *Client) Begin(opts ...TxOption) (*Tx, error) {
	var flags byte
	for _, o := range opts {
		flags |= byte(o)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastTx++
	tx := &Tx{c: c, id: c.lastTx}
	w := c.newReq()
	w.u64(tx.id)
	w.u8(flags)
	if err := c.pipeline(tx, reqBegin, w.b); err != nil {
		return nil, err
	}
	return tx, nil
}

// callLocked runs a request of t that needs an answer. A failed pipelined
// request of t — perhaps one whose reply this call just drained — takes
// precedence over the call's own reply. The caller holds t.c.mu.
func (t *Tx) callLocked(reqKind byte, payload []byte, wantKind byte) ([]byte, error) {
	resp, err := t.c.roundTripLocked(reqKind, payload, wantKind)
	if t.err != nil {
		return nil, t.err
	}
	return resp, err
}

// pipeline queues a write of t, or returns the failure already recorded
// on t.
func (t *Tx) pipeline(reqKind byte, payload []byte) error {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.c.pipeline(t, reqKind, payload)
}

// Commit commits, returning the commit timestamp. The handle is spent
// regardless of outcome (a failed commit is an abort, mirroring the engine
// API).
func (t *Tx) Commit() (uint64, error) {
	t.done = true
	w := t.c.newReq()
	w.u64(t.id)
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	resp, err := t.callLocked(reqCommit, w.b, respCommit)
	if err != nil {
		return 0, err
	}
	r := rbuf{b: resp}
	ts := r.u64()
	return ts, r.done()
}

// Abort rolls the transaction back. Safe to defer after Commit: a spent
// handle is a no-op. It returns nil after a failed pipelined request,
// which already rolled the transaction back.
func (t *Tx) Abort() error {
	if t.done {
		return nil
	}
	t.done = true
	w := t.c.newReq()
	w.u64(t.id)
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	_, err := t.c.roundTripLocked(reqAbort, w.b, respOK)
	if t.err != nil {
		return nil
	}
	return err
}

// Insert inserts one row (parallel cols/vals) and returns its slot.
func (t *Tx) Insert(table string, cols []string, vals []any) (uint64, error) {
	w := t.c.newReq()
	w.u64(t.id)
	w.str(table)
	if err := w.strs(cols); err != nil {
		return 0, err
	}
	if err := w.vals(vals); err != nil {
		return 0, err
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	resp, err := t.callLocked(reqInsert, w.b, respSlot)
	if err != nil {
		return 0, err
	}
	r := rbuf{b: resp}
	slot := r.u64()
	return slot, r.done()
}

// Update rewrites the named columns of the tuple at slot. The request is
// pipelined: a server-side failure is returned by the transaction's next
// call, and the server rolls the transaction back.
func (t *Tx) Update(table string, slot uint64, cols []string, vals []any) error {
	w := t.c.newReq()
	w.u64(t.id)
	w.str(table)
	w.u64(slot)
	if err := w.strs(cols); err != nil {
		return err
	}
	if err := w.vals(vals); err != nil {
		return err
	}
	return t.pipeline(reqUpdate, w.b)
}

// Delete removes the tuple at slot. Pipelined, like Update.
func (t *Tx) Delete(table string, slot uint64) error {
	w := t.c.newReq()
	w.u64(t.id)
	w.str(table)
	w.u64(slot)
	return t.pipeline(reqDelete, w.b)
}

// RowData is one row as returned by reads: parallel column names and
// decoded values (int64, float64, string, []byte, or nil).
type RowData struct {
	Slot uint64
	Cols []string
	Vals []any
}

// Val returns the value of the named column (nil when absent or NULL).
func (r *RowData) Val(col string) any {
	for i, c := range r.Cols {
		if c == col {
			return r.Vals[i]
		}
	}
	return nil
}

// Int returns the named column as int64 (0 when NULL or non-integer).
func (r *RowData) Int(col string) int64 {
	v, _ := r.Val(col).(int64)
	return v
}

// Float returns the named column as float64.
func (r *RowData) Float(col string) float64 {
	v, _ := r.Val(col).(float64)
	return v
}

// Str returns the named column as string.
func (r *RowData) Str(col string) string {
	switch v := r.Val(col).(type) {
	case string:
		return v
	case []byte:
		return string(v)
	}
	return ""
}

// decodeRow parses a respRow payload; nil row means not found.
func decodeRow(r *rbuf, cols []string) (*RowData, error) {
	found := r.u8()
	slot := r.u64()
	n := int(r.u16())
	if r.err != nil {
		return nil, r.done()
	}
	if found == 0 {
		return nil, r.done()
	}
	if n != len(cols) {
		return nil, fmt.Errorf("client: %d values for %d columns", n, len(cols))
	}
	row := &RowData{Slot: slot, Cols: cols, Vals: make([]any, n)}
	for i := 0; i < n; i++ {
		row.Vals[i] = r.val()
	}
	return row, r.done()
}

// Select reads the tuple at slot; nil when no version is visible. cols
// names the projection (empty = all columns, in schema order — fetch the
// schema to label them).
func (t *Tx) Select(table string, slot uint64, cols ...string) (*RowData, error) {
	// Resolve the full-schema projection up front: the response buffer is
	// reused per request, so no nested request may run after the read.
	if len(cols) == 0 {
		var err error
		if cols, err = t.allCols(table); err != nil {
			return nil, err
		}
	}
	w := t.c.newReq()
	w.u64(t.id)
	w.str(table)
	w.u64(slot)
	if err := w.strs(cols); err != nil {
		return nil, err
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	resp, err := t.callLocked(reqSelect, w.b, respRow)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: resp}
	return decodeRow(&r, cols)
}

// allCols resolves the server-side schema order for an empty projection.
// NOTE: runs as its own request; only used to label full-row reads.
func (t *Tx) allCols(table string) ([]string, error) {
	s, err := t.c.Schema(table)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, table)
	}
	cols := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		cols[i] = f.Name
	}
	return cols, nil
}

// GetBy is an indexed point read: key values address the index columns in
// order. nil row when no visible match.
func (t *Tx) GetBy(table, index string, key []any, cols ...string) (*RowData, error) {
	if len(cols) == 0 {
		var err error
		if cols, err = t.allCols(table); err != nil {
			return nil, err
		}
	}
	w := t.c.newReq()
	w.u64(t.id)
	w.str(table)
	w.str(index)
	if err := w.vals(key); err != nil {
		return nil, err
	}
	if err := w.strs(cols); err != nil {
		return nil, err
	}
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	resp, err := t.callLocked(reqGetBy, w.b, respRow)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: resp}
	return decodeRow(&r, cols)
}

// RangeBy is an indexed range scan over [lo, hi) (nil hi = unbounded),
// matching the engine's half-open range semantics. It
// returns up to limit rows (server-capped) and whether the scan was
// truncated by the limit or the frame budget.
func (t *Tx) RangeBy(table, index string, lo, hi []any, cols []string, limit int) (rows []RowData, more bool, err error) {
	if len(cols) == 0 {
		if cols, err = t.allCols(table); err != nil {
			return nil, false, err
		}
	}
	w := t.c.newReq()
	w.u64(t.id)
	w.str(table)
	w.str(index)
	if err := w.vals(lo); err != nil {
		return nil, false, err
	}
	if err := w.vals(hi); err != nil {
		return nil, false, err
	}
	if err := w.strs(cols); err != nil {
		return nil, false, err
	}
	if limit < 0 {
		limit = 0
	}
	w.u32(uint32(limit))
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	resp, err := t.callLocked(reqRangeBy, w.b, respRows)
	if err != nil {
		return nil, false, err
	}
	r := rbuf{b: resp}
	more = r.u8() == 1
	count := int(r.u32())
	if r.err != nil || count > maxRowsResp {
		return nil, false, fmt.Errorf("client: bad respRows header")
	}
	rows = make([]RowData, 0, count)
	for i := 0; i < count; i++ {
		slot := r.u64()
		n := int(r.u16())
		if r.err != nil || n != len(cols) {
			return nil, false, fmt.Errorf("client: bad row %d in respRows", i)
		}
		vals := make([]any, n)
		for j := 0; j < n; j++ {
			vals[j] = r.val()
		}
		rows = append(rows, RowData{Slot: slot, Cols: cols, Vals: vals})
	}
	if err := r.done(); err != nil {
		return nil, false, err
	}
	return rows, more, nil
}

// --- Analytical plane --------------------------------------------------------

// GetStats summarizes one DoGet stream.
type GetStats struct {
	// Rows is the total rows received; Frozen and Materialized count
	// source blocks by export path (zero-copy vs transactional
	// materialization; only populated for whole-table gets).
	Rows         int
	Frozen       int
	Materialized int
	// Bytes is the IPC payload volume.
	Bytes int64
}

// chunkReader adapts the dataChunk frame sequence of a DoGet response
// into an io.Reader; the dataEnd (or respErr) frame terminates it.
type chunkReader struct {
	c   *Client
	cur []byte
	end *GetStats // set when dataEnd arrives
	err error
}

func (cr *chunkReader) Read(p []byte) (int, error) {
	for len(cr.cur) == 0 {
		if cr.end != nil || cr.err != nil {
			return 0, io.EOF
		}
		kind, payload, err := cr.c.readResp()
		if err != nil {
			cr.err = err
			return 0, io.EOF // surface the protocol error, not a read error
		}
		switch kind {
		case dataChunk:
			// Copy out: the frame buffer is reused by the next read.
			cr.cur = append([]byte(nil), payload...)
		case dataEnd:
			r := rbuf{b: payload}
			st := &GetStats{}
			st.Rows = int(r.u64())
			st.Frozen = int(r.u32())
			st.Materialized = int(r.u32())
			st.Bytes = int64(r.u64())
			if e := r.done(); e != nil {
				cr.err = e
			} else {
				cr.end = st
			}
			return 0, io.EOF
		default:
			cr.err = fmt.Errorf("client: unexpected %s frame in DoGet stream", kindName(kind))
			return 0, io.EOF
		}
	}
	n := copy(p, cr.cur)
	cr.cur = cr.cur[n:]
	return n, nil
}

// DoGet streams a table (optionally projected to cols and filtered by
// pred) as Arrow record batches, invoking fn per batch. The connection is
// held for the duration of the stream.
func (c *Client) DoGet(table string, cols []string, pred *WirePred, fn func(rb *mainline.RecordBatch) error) (GetStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return GetStats{}, net.ErrClosed
	}
	w := c.newReq()
	w.str(table)
	if err := w.strs(cols); err != nil {
		return GetStats{}, err
	}
	if err := w.pred(pred); err != nil {
		return GetStats{}, err
	}
	if err := writeFrame(c.bw, reqDoGet, w.b); err != nil {
		return GetStats{}, err
	}
	if err := c.drain(); err != nil {
		return GetStats{}, err
	}
	cr := &chunkReader{c: c}
	rd := arrow.NewReader(cr)
	var fnErr error
	for fnErr == nil {
		rb, err := rd.Next()
		if err == io.EOF || (err != nil && (cr.end != nil || cr.err != nil)) {
			break
		}
		if err != nil {
			cr.err = fmt.Errorf("client: bad IPC stream: %v", err)
			break
		}
		fnErr = fn(rb)
	}
	// Drain to the terminal frame so the connection stays usable.
	for cr.end == nil && cr.err == nil {
		var sink [4096]byte
		if _, err := cr.Read(sink[:]); err == io.EOF {
			break
		}
	}
	switch {
	case cr.err != nil:
		return GetStats{}, cr.err
	case fnErr != nil:
		return GetStats{}, fnErr
	case cr.end == nil:
		return GetStats{}, fmt.Errorf("client: DoGet stream ended without dataEnd")
	default:
		return *cr.end, nil
	}
}

// DoPut bulk-ingests record batches into a table through one server-side
// transaction, returning the rows inserted. Batch schemas must name table
// columns (a subset is fine; missing columns are NULL).
func (c *Client) DoPut(table string, batches []*mainline.RecordBatch) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	w := c.newReq()
	w.str(table)
	if err := writeFrame(c.bw, reqDoPut, w.b); err != nil {
		return 0, err
	}
	// Stream the IPC payload as putChunk frames. The chunk writer reuses
	// the connection's buffered writer; each IPC writer flush becomes one
	// or more frames.
	pw := &putChunkWriter{c: c}
	wr := arrow.NewWriter(pw)
	for _, rb := range batches {
		if err := wr.WriteSchema(rb.Schema); err != nil {
			return 0, err
		}
		if err := wr.WriteBatch(rb); err != nil {
			return 0, err
		}
	}
	if err := wr.Close(); err != nil {
		return 0, err
	}
	if err := writeFrame(c.bw, putDone, nil); err != nil {
		return 0, err
	}
	if err := c.drain(); err != nil {
		return 0, err
	}
	kind, resp, err := c.readResp()
	if err != nil {
		return 0, err
	}
	if kind != respPut {
		return 0, fmt.Errorf("client: got %s, want %s", kindName(kind), kindName(respPut))
	}
	r := rbuf{b: resp}
	rows := int(r.u64())
	return rows, r.done()
}

// putChunkWriter frames DoPut payload bytes as putChunk frames.
type putChunkWriter struct{ c *Client }

func (p *putChunkWriter) Write(q []byte) (int, error) {
	if err := writeFrame(p.c.bw, putChunk, q); err != nil {
		return 0, err
	}
	return len(q), nil
}
