package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"mainline"
)

// session is one admitted connection: a serial request loop plus the
// connection-scoped transaction-handle table. Leaked handles — the client
// disconnected, errored, or just left — are reaped (aborted) when the
// session ends, so a dead client can never pin the GC watermark or hold
// write intents forever.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	// txns maps the client-chosen handles to their transactions.
	txns map[uint64]handle

	// buf is the reusable request-payload buffer.
	buf []byte
	// unflushed counts the responses in bw not yet written to the socket.
	unflushed int

	// busy is true while a request is being served; Shutdown only
	// force-closes idle sessions before the grace deadline.
	busy atomic.Bool
}

func newSession(s *Server, conn net.Conn) *session {
	return &session{
		srv:  s,
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, frameHeaderLen+maxDataChunk),
		txns: make(map[uint64]handle),
	}
}

// handle is one transaction handle: a live transaction, or — once a
// pipelined write on it failed — a tombstone holding that write's error.
type handle struct {
	tx  *mainline.Txn
	err error
}

// run is the session's request loop. It exits on connection error, frame
// violation, or drain; cleanup sends the replies still buffered, reaps
// every open transaction and releases the admission slot.
func (s *session) run() {
	defer func() {
		_ = s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
		_ = s.flush()
		for id, h := range s.txns {
			if !h.tx.Finished() {
				_ = h.tx.Abort()
				s.srv.ctr.txnsReaped.Add(1)
			}
			delete(s.txns, id)
		}
		s.srv.dropSession(s)
		s.conn.Close()
	}()
	for {
		kind, payload, err := readFrame(s.br, s.srv.cfg.MaxFrame, s.buf)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// The stream can't be resynchronized; tell the client why
				// before hanging up.
				_ = s.respondErr(err)
			}
			return
		}
		if cap(payload) > cap(s.buf) {
			s.buf = payload[:0]
		}
		s.busy.Store(true)
		ok := s.serve(kind, payload)
		s.busy.Store(false)
		if !ok || s.srv.draining.Load() {
			return
		}
	}
}

// serve dispatches one request frame; false means the connection must
// close (write failure or protocol violation).
func (s *session) serve(kind byte, payload []byte) bool {
	s.srv.ctr.requests.Add(1)
	if s.srv.draining.Load() {
		_ = s.respondErr(ErrDraining)
		return false
	}
	if !s.srv.acquire() {
		s.srv.ctr.requestsRejected.Add(1)
		err := fmt.Errorf("%w: %d requests in flight", ErrServerBusy, s.srv.cfg.MaxInflight)
		if kind == reqUpdate || kind == reqDelete {
			// A shed pipelined write fails its transaction like any other
			// failed pipelined write.
			if id, ok := txnID(kind, payload); ok {
				if h, live := s.txns[id]; live && h.err == nil {
					s.kill(id, h.tx, err)
				}
			}
		}
		return s.respondErr(err) == nil
	}
	defer s.srv.release()
	if c := s.srv.ctr.reqCounter(kind); c != nil {
		c.Add(1)
	}

	r := rbuf{b: payload}
	ms := r.u32() // relative deadline, milliseconds; 0 = none
	start := time.Now()
	var dl time.Time
	if ms > 0 {
		dl = start.Add(time.Duration(ms) * time.Millisecond)
	}
	defer s.observe(kind, payload, start, dl)

	var err error
	switch kind {
	case reqPing:
		err = s.respond(respOK, nil)
	case reqBegin:
		err = s.handleBegin(&r)
	case reqCommit:
		err = s.handleCommit(&r)
	case reqAbort:
		err = s.handleAbort(&r)
	case reqInsert:
		err = s.handleInsert(&r, dl)
	case reqUpdate:
		err = s.handleUpdate(&r, dl)
	case reqDelete:
		err = s.handleDelete(&r, dl)
	case reqSelect:
		err = s.handleSelect(&r, dl)
	case reqGetBy:
		err = s.handleGetBy(&r, dl)
	case reqRangeBy:
		err = s.handleRangeBy(&r, dl)
	case reqCreateTable:
		err = s.handleCreateTable(&r)
	case reqCreateIndex:
		err = s.handleCreateIndex(&r)
	case reqSchema:
		err = s.handleSchema(&r)
	case reqDoGet:
		err = s.handleDoGet(&r, dl)
	case reqDoPut:
		err = s.handleDoPut(&r, dl)
	default:
		// Unknown request kind: report and keep the connection — the
		// frame was well-formed, so the stream is still in sync.
		err = s.respondErr(fmt.Errorf("%w: unknown request kind %s", ErrBadRequest, kindName(kind)))
	}
	return err == nil
}

// observe records the request's latency into the per-kind histogram, the
// deadline margin when one was set, and — past the engine's slow-op
// threshold — a span into the shared trace ring, with the client-side
// transaction handle peeked from the payload for transactional kinds.
func (s *session) observe(kind byte, payload []byte, start time.Time, dl time.Time) {
	d := time.Since(start)
	so := s.srv.obs
	if h := so.reqHist[kind]; h != nil {
		h.Record(d)
	}
	if !dl.IsZero() {
		// Margin left at completion; RecordValue clamps an overshot
		// (negative) margin to the zero bucket.
		so.deadline.RecordValue(int64(time.Until(dl)))
	}
	if !so.ring.Exceeds(d) {
		return
	}
	sp := mainline.SlowOp{
		Kind:  "server:" + kindName(kind),
		Start: start,
		DurNs: int64(d),
	}
	if id, ok := txnID(kind, payload); ok {
		sp.TxnID = id
	}
	if !dl.IsZero() {
		sp.Phases = []mainline.SlowOpPhase{
			{Name: "deadline_budget", DurNs: int64(dl.Sub(start))},
		}
	}
	so.ring.Observe(sp)
}

// txnID peeks the transaction handle of a transactional request; its
// payload opens with [deadline u32][handle u64].
func txnID(kind byte, payload []byte) (uint64, bool) {
	if !txnIDKinds[kind] || len(payload) < 12 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(payload[4:12]), true
}

// respond writes one response frame, bounded by WriteTimeout. The frame
// reaches the socket once no further request is buffered, so the replies
// to a pipelined burst leave in one write.
func (s *session) respond(kind byte, payload []byte) error {
	_ = s.conn.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
	defer s.conn.SetWriteDeadline(time.Time{})
	if err := writeFrame(s.bw, kind, payload); err != nil {
		return err
	}
	s.unflushed++
	if s.br.Buffered() > 0 {
		return nil
	}
	return s.flush()
}

// flush writes the buffered frames to the socket, recording how many
// responses the write carries.
func (s *session) flush() error {
	if s.unflushed > 0 {
		s.srv.obs.respsPerWrite.RecordValue(int64(s.unflushed))
		s.unflushed = 0
	}
	return s.bw.Flush()
}

// respondErr sends a typed error response.
func (s *session) respondErr(err error) error {
	return s.respond(respErr, encodeErr(err))
}

// --- Lookup helpers ----------------------------------------------------------

// table resolves a table name.
func (s *session) table(name string) (*mainline.Table, error) {
	t := s.srv.eng.Table(name)
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	return t, nil
}

// txn resolves a live transaction handle; a tombstone answers with the
// error of the write that killed it.
func (s *session) txn(id uint64) (*mainline.Txn, error) {
	h, ok := s.txns[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownTxn, id)
	}
	if h.err != nil {
		return nil, h.err
	}
	return h.tx, nil
}

// finish drops a handle, aborting it if still live.
func (s *session) finish(id uint64, tx *mainline.Txn) {
	if !tx.Finished() {
		_ = tx.Abort()
	}
	delete(s.txns, id)
}

// kill rolls a transaction back after a failed pipelined write and keeps
// its handle as a tombstone carrying err (see "Tombstones" in wire.go).
func (s *session) kill(id uint64, tx *mainline.Txn, err error) {
	if !tx.Finished() {
		_ = tx.Abort()
	}
	s.txns[id] = handle{tx: tx, err: err}
}

// expired reports whether a request deadline has passed.
func expired(dl time.Time) bool {
	return !dl.IsZero() && time.Now().After(dl)
}

// deadlineAbort kills the transaction a timed-out request was using (the
// contract: a deadline does not leave a half-applied transaction behind
// for the client to mistakenly commit) and reports the hit.
func (s *session) deadlineAbort(id uint64, tx *mainline.Txn) error {
	if tx != nil {
		s.finish(id, tx)
		s.srv.ctr.txnsReaped.Add(1)
	}
	s.srv.ctr.deadlineHits.Add(1)
	return s.respondErr(ErrDeadlineExceeded)
}

// --- Transactional plane -----------------------------------------------------

// handleBegin: [handle u64][flags u8] -> respOK. The client picks the
// handle, so it can use the transaction before this reply arrives.
func (s *session) handleBegin(r *rbuf) error {
	id := r.u64()
	flags := r.u8()
	if err := r.done(); err != nil {
		return s.respondErr(err)
	}
	if _, taken := s.txns[id]; taken || id == 0 {
		return s.respondErr(fmt.Errorf("%w: transaction handle %d is zero or in use", ErrBadRequest, id))
	}
	if len(s.txns) >= s.srv.cfg.MaxTxnsPerSession {
		return s.respondErr(fmt.Errorf("%w (cap %d)", ErrTooManyTxns, s.srv.cfg.MaxTxnsPerSession))
	}
	var opts []mainline.TxnOption
	if flags&1 != 0 {
		opts = append(opts, mainline.ReadOnly())
	}
	if flags&2 != 0 {
		opts = append(opts, mainline.Durable())
	}
	tx, err := s.srv.eng.Begin(opts...)
	if err != nil {
		return s.respondErr(err)
	}
	s.txns[id] = handle{tx: tx}
	return s.respond(respOK, nil)
}

// handleCommit: [id u64] -> respCommit [ts u64]. A tombstone is dropped
// and answered with its error.
func (s *session) handleCommit(r *rbuf) error {
	id := r.u64()
	if err := r.done(); err != nil {
		return s.respondErr(err)
	}
	tx, err := s.txn(id)
	if err != nil {
		delete(s.txns, id)
		return s.respondErr(err)
	}
	ts, err := tx.Commit()
	s.finish(id, tx)
	if err != nil {
		return s.respondErr(err)
	}
	var w wbuf
	w.u64(ts)
	return s.respond(respCommit, w.b)
}

// handleAbort: [id u64] -> respOK, for a live handle or a tombstone.
func (s *session) handleAbort(r *rbuf) error {
	id := r.u64()
	if err := r.done(); err != nil {
		return s.respondErr(err)
	}
	h, ok := s.txns[id]
	if !ok {
		return s.respondErr(fmt.Errorf("%w: %d", ErrUnknownTxn, id))
	}
	s.finish(id, h.tx)
	return s.respond(respOK, nil)
}

// setRow decodes cols+vals into a fresh projected row for tbl.
func setRow(tbl *mainline.Table, cols []string, vals []any) (*mainline.Row, error) {
	if len(cols) != len(vals) {
		return nil, fmt.Errorf("%w: %d columns, %d values", ErrBadRequest, len(cols), len(vals))
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: empty column list", ErrBadRequest)
	}
	row, err := tbl.NewRowFor(cols...)
	if err != nil {
		return nil, err
	}
	for i, c := range cols {
		if err := row.Set(c, vals[i]); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// handleInsert: [txn u64][table][cols][vals] -> respSlot [slot u64].
func (s *session) handleInsert(r *rbuf, dl time.Time) error {
	id := r.u64()
	name := r.str()
	cols := r.strs()
	vals := r.vals()
	if err := r.done(); err != nil {
		return s.respondErr(err)
	}
	tx, err := s.txn(id)
	if err != nil {
		return s.respondErr(err)
	}
	if expired(dl) {
		return s.deadlineAbort(id, tx)
	}
	tbl, err := s.table(name)
	if err != nil {
		return s.respondErr(err)
	}
	row, err := setRow(tbl, cols, vals)
	if err != nil {
		return s.respondErr(err)
	}
	slot, err := tbl.Insert(tx, row)
	if err != nil {
		return s.respondErr(err)
	}
	var w wbuf
	w.u64(uint64(slot))
	return s.respond(respSlot, w.b)
}

// write serves a pipelined write (Update, Delete) on handle id. Its
// client reads the reply only later, so a failure must not leave the
// transaction committable: the transaction is rolled back at once and its
// handle kept as a tombstone.
func (s *session) write(id uint64, decodeErr error, dl time.Time, apply func(*mainline.Txn) error) error {
	tx, err := s.txn(id)
	if err != nil {
		return s.respondErr(err)
	}
	switch {
	case decodeErr != nil:
		err = decodeErr
	case expired(dl):
		s.srv.ctr.deadlineHits.Add(1)
		s.srv.ctr.txnsReaped.Add(1)
		err = ErrDeadlineExceeded
	default:
		err = apply(tx)
	}
	if err != nil {
		s.kill(id, tx, err)
		return s.respondErr(err)
	}
	return s.respond(respOK, nil)
}

// handleUpdate: [txn u64][table][slot u64][cols][vals] -> respOK.
func (s *session) handleUpdate(r *rbuf, dl time.Time) error {
	id := r.u64()
	name := r.str()
	slot := r.u64()
	cols := r.strs()
	vals := r.vals()
	return s.write(id, r.done(), dl, func(tx *mainline.Txn) error {
		tbl, err := s.table(name)
		if err != nil {
			return err
		}
		row, err := setRow(tbl, cols, vals)
		if err != nil {
			return err
		}
		return tbl.Update(tx, mainline.TupleSlot(slot), row)
	})
}

// handleDelete: [txn u64][table][slot u64] -> respOK.
func (s *session) handleDelete(r *rbuf, dl time.Time) error {
	id := r.u64()
	name := r.str()
	slot := r.u64()
	return s.write(id, r.done(), dl, func(tx *mainline.Txn) error {
		tbl, err := s.table(name)
		if err != nil {
			return err
		}
		return tbl.Delete(tx, mainline.TupleSlot(slot))
	})
}

// rowCols returns the effective column list for a read (all schema columns
// when the request named none).
func rowCols(tbl *mainline.Table, cols []string) []string {
	if len(cols) > 0 {
		return cols
	}
	out := make([]string, len(tbl.Schema.Fields))
	for i, f := range tbl.Schema.Fields {
		out[i] = f.Name
	}
	return out
}

// encodeRowVals appends the named columns of row as tagged values.
func encodeRowVals(w *wbuf, tbl *mainline.Table, row *mainline.Row, cols []string) error {
	if len(cols) > maxListLen {
		return fmt.Errorf("%w: %d columns", ErrBadRequest, len(cols))
	}
	w.u16(uint16(len(cols)))
	for _, c := range cols {
		if row.Null(c) {
			w.u8(tagNull)
			continue
		}
		f := tbl.Schema.FieldIndex(c)
		if f < 0 {
			return fmt.Errorf("%w: no column %q", ErrBadRequest, c)
		}
		switch typ := tbl.Schema.Fields[f].Type; {
		case typ == mainline.FLOAT64:
			w.u8(tagFloat)
			w.f64(row.Float64(c))
		case typ.FixedWidth():
			w.u8(tagInt)
			w.i64(row.Int64(c))
		default:
			w.u8(tagStr)
			w.bytes32(row.Bytes(c))
		}
	}
	return nil
}

// handleSelect: [txn u64][table][slot u64][cols] -> respRow.
func (s *session) handleSelect(r *rbuf, dl time.Time) error {
	id := r.u64()
	name := r.str()
	slot := r.u64()
	cols := r.strs()
	if err := r.done(); err != nil {
		return s.respondErr(err)
	}
	tx, err := s.txn(id)
	if err != nil {
		return s.respondErr(err)
	}
	if expired(dl) {
		return s.deadlineAbort(id, tx)
	}
	tbl, err := s.table(name)
	if err != nil {
		return s.respondErr(err)
	}
	cols = rowCols(tbl, cols)
	row, err := tbl.NewRowFor(cols...)
	if err != nil {
		return s.respondErr(err)
	}
	found, err := tbl.Select(tx, mainline.TupleSlot(slot), row)
	if err != nil {
		return s.respondErr(err)
	}
	var w wbuf
	if !found {
		w.u8(0)
		w.u64(slot)
		w.u16(0)
		return s.respond(respRow, w.b)
	}
	w.u8(1)
	w.u64(slot)
	if err := encodeRowVals(&w, tbl, row, cols); err != nil {
		return s.respondErr(err)
	}
	return s.respond(respRow, w.b)
}

// handleGetBy: [txn u64][table][index][key vals][cols] -> respRow.
func (s *session) handleGetBy(r *rbuf, dl time.Time) error {
	id := r.u64()
	name := r.str()
	idxName := r.str()
	key := r.vals()
	cols := r.strs()
	if err := r.done(); err != nil {
		return s.respondErr(err)
	}
	tx, err := s.txn(id)
	if err != nil {
		return s.respondErr(err)
	}
	if expired(dl) {
		return s.deadlineAbort(id, tx)
	}
	tbl, err := s.table(name)
	if err != nil {
		return s.respondErr(err)
	}
	idx := tbl.Index(idxName)
	if idx == nil {
		return s.respondErr(fmt.Errorf("%w: %s.%s", ErrUnknownIndex, name, idxName))
	}
	cols = rowCols(tbl, cols)
	row, err := tbl.NewRowFor(cols...)
	if err != nil {
		return s.respondErr(err)
	}
	slot, found, err := tx.GetBy(idx, row, key...)
	if err != nil {
		return s.respondErr(err)
	}
	var w wbuf
	if !found {
		w.u8(0)
		w.u64(0)
		w.u16(0)
		return s.respond(respRow, w.b)
	}
	w.u8(1)
	w.u64(uint64(slot))
	if err := encodeRowVals(&w, tbl, row, cols); err != nil {
		return s.respondErr(err)
	}
	return s.respond(respRow, w.b)
}

// handleRangeBy: [txn u64][table][index][lo vals][hi vals][cols][limit u32]
// -> respRows [more u8][count u32]{[slot u64][vals]}*.
//
// The response is a single frame, so the row count is bounded by the
// request's limit, the frame size limit, and maxRowsResp; `more` reports a
// truncated scan. The deadline is checked every few hundred rows — on
// expiry the transaction is aborted, because a half-delivered range is not
// a state the client can reason about.
func (s *session) handleRangeBy(r *rbuf, dl time.Time) error {
	id := r.u64()
	name := r.str()
	idxName := r.str()
	lo := r.vals()
	hi := r.vals()
	cols := r.strs()
	limit := int(r.u32())
	if err := r.done(); err != nil {
		return s.respondErr(err)
	}
	tx, err := s.txn(id)
	if err != nil {
		return s.respondErr(err)
	}
	if expired(dl) {
		return s.deadlineAbort(id, tx)
	}
	tbl, err := s.table(name)
	if err != nil {
		return s.respondErr(err)
	}
	idx := tbl.Index(idxName)
	if idx == nil {
		return s.respondErr(fmt.Errorf("%w: %s.%s", ErrUnknownIndex, name, idxName))
	}
	if limit <= 0 || limit > maxRowsResp {
		limit = maxRowsResp
	}
	cols = rowCols(tbl, cols)
	// Body is assembled separately from the [more][count] prefix so the
	// count can be patched in after the scan.
	var body wbuf
	count, more := 0, false
	budget := s.srv.cfg.MaxFrame - (1 << 10) // headroom for the prefix
	var encErr error
	var deadlineHit bool
	scanErr := tx.RangeBy(idx, lo, hi, cols, func(slot mainline.TupleSlot, row *mainline.Row) bool {
		if count&0xff == 0 && expired(dl) {
			deadlineHit = true
			return false
		}
		body.u64(uint64(slot))
		if encErr = encodeRowVals(&body, tbl, row, cols); encErr != nil {
			return false
		}
		count++
		if count >= limit || len(body.b) >= budget {
			more = count >= limit // size-capped scans are also "more", set below
			return false
		}
		return true
	})
	if count == limit || (len(body.b) >= budget && encErr == nil && !deadlineHit) {
		more = true
	}
	switch {
	case deadlineHit:
		return s.deadlineAbort(id, tx)
	case encErr != nil:
		return s.respondErr(encErr)
	case scanErr != nil:
		return s.respondErr(scanErr)
	}
	var w wbuf
	if more {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(uint32(count))
	w.b = append(w.b, body.b...)
	return s.respond(respRows, w.b)
}

// --- DDL + metadata ----------------------------------------------------------

// handleCreateTable: [name][schema] -> respOK.
func (s *session) handleCreateTable(r *rbuf) error {
	name := r.str()
	schema := r.schema()
	if err := r.done(); err != nil {
		return s.respondErr(err)
	}
	if schema == nil || len(schema.Fields) == 0 {
		return s.respondErr(fmt.Errorf("%w: empty schema", ErrBadRequest))
	}
	if s.srv.eng.Table(name) != nil {
		return s.respondErr(fmt.Errorf("%w: %q", ErrTableExists, name))
	}
	if _, err := s.srv.eng.CreateTable(name, schema); err != nil {
		return s.respondErr(err)
	}
	return s.respond(respOK, nil)
}

// handleCreateIndex: [table][index][shards u16][cols] -> respOK.
// Re-creating an existing index of the same name is an idempotent success,
// so clients can ensure their schema on connect.
func (s *session) handleCreateIndex(r *rbuf) error {
	name := r.str()
	idxName := r.str()
	shards := int(r.u16())
	cols := r.strs()
	if err := r.done(); err != nil {
		return s.respondErr(err)
	}
	tbl, err := s.table(name)
	if err != nil {
		return s.respondErr(err)
	}
	if tbl.Index(idxName) != nil {
		return s.respond(respOK, nil)
	}
	if len(s.txns) > 0 {
		// CreateIndex waits out every transaction begun before it; one of
		// this session's own open handles would deadlock the wait (the
		// session is serial), so reject up front.
		return s.respondErr(fmt.Errorf("%w: finish open transactions before createindex", ErrBadRequest))
	}
	if shards > 0 {
		_, err = tbl.CreateShardedIndex(idxName, shards, cols...)
	} else {
		_, err = tbl.CreateIndex(idxName, cols...)
	}
	if err != nil {
		return s.respondErr(err)
	}
	return s.respond(respOK, nil)
}

// handleSchema: [name] -> respSchema [exists u8][schema].
func (s *session) handleSchema(r *rbuf) error {
	name := r.str()
	if err := r.done(); err != nil {
		return s.respondErr(err)
	}
	tbl := s.srv.eng.Table(name)
	var w wbuf
	if tbl == nil {
		w.u8(0)
		return s.respond(respSchema, w.b)
	}
	w.u8(1)
	if err := w.schema(tbl.Schema); err != nil {
		return s.respondErr(err)
	}
	return s.respond(respSchema, w.b)
}
