package server

import (
	"fmt"
	"io"
	"time"

	"mainline"
	"mainline/internal/arrow"
	"mainline/internal/storage"
)

// This file is the analytical plane: DoGet streams a table out as Arrow
// IPC, DoPut bulk-ingests one. Both reuse the engine's export machinery —
// DoGet's unfiltered path writes frozen-block buffers to the socket
// zero-copy (the paper's §5 payoff: serialization is just framing), holding
// each block's in-place read registration across the network write so a
// concurrent thaw-and-update can never mutate buffers mid-flight.

// chunkWriter frames a byte stream as dataChunk frames on the session
// connection. The arrow IPC writer's internal 64 KiB buffering sets the
// chunk granularity; a longer write (a large frozen buffer the IPC writer
// passes through) is split into chunks of at most maxDataChunk bytes.
// Each frame goes to the socket as one write: the session buffer holds a
// header plus maxDataChunk bytes, and it is flushed empty before each
// frame is buffered. Every write is bounded by WriteTimeout so a stalled
// client cannot pin a frozen block's read registration indefinitely.
type chunkWriter struct {
	s     *session
	bytes int64
}

// maxDataChunk bounds a dataChunk payload (see chunkWriter).
const maxDataChunk = 1 << 16

func (c *chunkWriter) Write(p []byte) (int, error) {
	_ = c.s.conn.SetWriteDeadline(time.Now().Add(c.s.srv.cfg.WriteTimeout))
	defer c.s.conn.SetWriteDeadline(time.Time{})
	for rest := p; len(rest) > 0; {
		n := min(len(rest), maxDataChunk)
		// The first flush sends responses a pipelined request left behind.
		if err := c.s.flush(); err != nil {
			return 0, err
		}
		if err := writeFrame(c.s.bw, dataChunk, rest[:n]); err != nil {
			return 0, err
		}
		rest = rest[n:]
	}
	if err := c.s.flush(); err != nil {
		return 0, err
	}
	c.bytes += int64(len(p))
	c.s.srv.ctr.bytesStreamed.Add(int64(len(p)))
	return len(p), nil
}

// handleDoGet: [table][cols][pred] -> dataChunk* then dataEnd
// [rows u64][frozen u32][materialized u32][bytes u64]; on failure a respErr
// frame terminates the stream (the client surfaces it as the stream error).
func (s *session) handleDoGet(r *rbuf, dl time.Time) error {
	name := r.str()
	cols := r.strs()
	wp := r.pred()
	if err := r.done(); err != nil {
		return s.respondErr(err)
	}
	if _, err := s.table(name); err != nil {
		return s.respondErr(err)
	}
	if expired(dl) {
		s.srv.ctr.deadlineHits.Add(1)
		return s.respondErr(ErrDeadlineExceeded)
	}

	cw := &chunkWriter{s: s}
	wr := arrow.NewWriter(cw)
	var rows, frozen, materialized int
	var err error
	if len(cols) == 0 && wp == nil {
		rows, frozen, materialized, err = s.streamWhole(name, wr, dl)
	} else {
		rows, err = s.streamFiltered(name, cols, wp, wr, dl)
	}
	if err == nil {
		err = wr.Close()
	}
	if err != nil {
		if isDeadline(err) {
			s.srv.ctr.deadlineHits.Add(1)
		}
		// Best-effort error frame; if chunks already went out the client's
		// stream loop reports this as the terminal error.
		return s.respondErr(err)
	}
	s.srv.ctr.rowsStreamed.Add(int64(rows))
	var w wbuf
	w.u64(uint64(rows))
	w.u32(uint32(frozen))
	w.u32(uint32(materialized))
	w.u64(uint64(cw.bytes))
	return s.respond(dataEnd, w.b)
}

func isDeadline(err error) bool { return err == ErrDeadlineExceeded }

// streamWhole exports every visible row of a table, zero-copy for frozen
// blocks. It runs on a raw manager transaction (the Admin surface's
// intended export path) so catalog.StreamBatches can pin each frozen
// block's state across the socket write.
func (s *session) streamWhole(name string, wr *arrow.Writer, dl time.Time) (rows, frozen, materialized int, err error) {
	adm := s.srv.eng.Admin()
	ct := adm.Catalog().Table(name)
	if ct == nil {
		return 0, 0, 0, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	mgr := adm.TxnManager()
	rtx := mgr.Begin()
	frozen, materialized, err = ct.StreamBatches(rtx, func(rb *arrow.RecordBatch, _ bool) error {
		if expired(dl) {
			return ErrDeadlineExceeded
		}
		// The same stream Table.ExportIPC writes.
		if e := wr.WriteBatchWithSchema(rb); e != nil {
			return e
		}
		rows += rb.NumRows
		return nil
	})
	if err != nil {
		mgr.Abort(rtx)
		return rows, frozen, materialized, err
	}
	mgr.Commit(rtx, nil)
	return rows, frozen, materialized, nil
}

// streamFiltered exports a projected and/or predicate-filtered scan
// through the catalog's snapshot producer: the vectorized batch scan
// copies only the requested columns of matching rows, flushed in bounded
// batches.
func (s *session) streamFiltered(name string, cols []string, wp *WirePred, wr *arrow.Writer, dl time.Time) (int, error) {
	tbl, err := s.table(name)
	if err != nil {
		return 0, err
	}
	var pred *mainline.Pred
	if wp != nil {
		if pred, err = compilePred(wp); err != nil {
			return 0, err
		}
	}
	adm := s.srv.eng.Admin()
	proj, cpred, err := adm.ScanArgs(tbl, cols, pred)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := wr.WriteSchema(tbl.SchemaOf(proj)); err != nil {
		return 0, err
	}
	mgr := adm.TxnManager()
	rtx := mgr.Begin()
	defer mgr.Abort(rtx)
	// The deadline is checked before every block, so a selective (even a
	// match-nothing) predicate over a long scan still times out.
	check := func() error {
		if expired(dl) {
			return ErrDeadlineExceeded
		}
		return nil
	}
	return tbl.SnapshotBatches(rtx, proj, cpred, check, func(rb *arrow.RecordBatch, _ []storage.TupleSlot) error {
		return wr.WriteBatch(rb)
	})
}

// --- DoPut -------------------------------------------------------------------

// putReader adapts the putChunk frame sequence into an io.Reader for the
// arrow IPC reader. putDone is EOF.
type putReader struct {
	s     *session
	buf   []byte
	cur   []byte
	done  bool
	bytes int64
}

func (p *putReader) Read(q []byte) (int, error) {
	for len(p.cur) == 0 {
		if p.done {
			return 0, io.EOF
		}
		kind, payload, err := readFrame(p.s.br, p.s.srv.cfg.MaxFrame, p.buf)
		if err != nil {
			return 0, err
		}
		if cap(payload) > cap(p.buf) {
			p.buf = payload[:0]
		}
		switch kind {
		case putChunk:
			p.cur = payload
			p.bytes += int64(len(payload))
		case putDone:
			p.done = true
		default:
			return 0, fmt.Errorf("%w: unexpected %s frame inside DoPut stream", ErrBadRequest, kindName(kind))
		}
	}
	n := copy(q, p.cur)
	p.cur = p.cur[n:]
	return n, nil
}

// drain consumes frames through putDone so the connection stays in sync
// after a mid-stream ingest failure. A frame-level error is fatal (the
// caller closes the connection).
func (p *putReader) drain() error {
	for !p.done {
		kind, payload, err := readFrame(p.s.br, p.s.srv.cfg.MaxFrame, p.buf)
		if err != nil {
			return err
		}
		if cap(payload) > cap(p.buf) {
			p.buf = payload[:0]
		}
		switch kind {
		case putChunk:
			// discard
		case putDone:
			p.done = true
		default:
			return fmt.Errorf("%w: unexpected %s frame inside DoPut stream", ErrBadRequest, kindName(kind))
		}
	}
	return nil
}

// handleDoPut: [table], then putChunk* putDone carrying an Arrow IPC
// stream -> respPut [rows u64]. The whole stream is ingested in one
// transaction: a failed put leaves nothing behind.
func (s *session) handleDoPut(r *rbuf, dl time.Time) error {
	name := r.str()
	if err := r.done(); err != nil {
		return s.respondErr(err)
	}
	pr := &putReader{s: s}
	fail := func(err error) error {
		if e := pr.drain(); e != nil {
			_ = s.respondErr(err)
			return e // framing lost; close the connection
		}
		if isDeadline(err) {
			s.srv.ctr.deadlineHits.Add(1)
		}
		return s.respondErr(err)
	}
	tbl, terr := s.table(name)
	if terr != nil {
		return fail(terr)
	}
	tx, err := s.srv.eng.Begin()
	if err != nil {
		return fail(err)
	}
	rows, err := s.ingest(tbl, tx, pr, dl)
	if err != nil {
		_ = tx.Abort()
		return fail(err)
	}
	// The IPC reader stops at the EOS marker; the putDone frame behind it
	// still has to come off the wire before the next request.
	if err := pr.drain(); err != nil {
		_ = tx.Abort()
		_ = s.respondErr(ErrBadRequest)
		return err
	}
	if _, err := tx.Commit(); err != nil {
		return fail(err)
	}
	s.srv.ctr.rowsIngested.Add(int64(rows))
	s.srv.ctr.bytesIngested.Add(pr.bytes)
	var w wbuf
	w.u64(uint64(rows))
	return s.respond(respPut, w.b)
}

// ingest inserts every row of the IPC stream into tbl under tx.
func (s *session) ingest(tbl *mainline.Table, tx *mainline.Txn, pr *putReader, dl time.Time) (int, error) {
	rd := arrow.NewReader(pr)
	rows := 0
	for {
		rb, err := rd.Next()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		if expired(dl) {
			return rows, ErrDeadlineExceeded
		}
		names := make([]string, len(rb.Schema.Fields))
		for i, f := range rb.Schema.Fields {
			names[i] = f.Name
		}
		row, err := tbl.NewRowFor(names...)
		if err != nil {
			return rows, err
		}
		for i := 0; i < rb.NumRows; i++ {
			row.Reset()
			for ci, f := range rb.Schema.Fields {
				a := rb.Columns[ci]
				if a.IsNull(i) {
					continue
				}
				var v any
				switch f.Type {
				case arrow.FLOAT64:
					v = a.Float64(i)
				case arrow.INT64:
					v = a.Int64(i)
				case arrow.INT32:
					v = int64(a.Int32(i))
				case arrow.INT16:
					v = int64(a.Int16(i))
				case arrow.INT8:
					v = int64(a.Int8(i))
				case arrow.STRING, arrow.BINARY, arrow.DICT32:
					v = a.Bytes(i)
				default:
					return rows, fmt.Errorf("%w: unsupported ingest type %v", ErrBadRequest, f.Type)
				}
				if err := row.Set(names[ci], v); err != nil {
					return rows, err
				}
			}
			if _, err := tbl.Insert(tx, row); err != nil {
				return rows, err
			}
			rows++
		}
	}
}
