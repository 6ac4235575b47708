// The mainline-serve wire protocol: length-prefixed frames over TCP,
// carrying two planes of traffic —
//
//	analytical     DoGet streams a table (or a filtered ScanBatches
//	               result) to the client as Arrow IPC bytes chunked into
//	               data frames; DoPut streams client record batches into
//	               the transactional write path.
//	transactional  Begin/Commit/Abort plus point reads and writes and
//	               indexed reads, one compact binary request and one
//	               response frame each, against connection-scoped
//	               transaction handles.
//
// Frame layout (everything little-endian):
//
//	[1 byte kind][u32 payload length][payload]
//
// A connection opens with an 8-byte magic from the client; the server
// answers with one respOK frame (or respErr carrying codeBusy/codeDraining,
// then closes; a client speaking another protocol version gets a respErr
// naming both versions). Afterwards the server answers request frames in
// the order they arrive, each with frames ending in its terminal response.
// Streaming responses (DoGet) interleave dataChunk frames and finish with
// dataEnd or respErr; streaming requests (DoPut) follow the header frame
// with putChunk frames and finish with putDone.
//
// Pipelining. Begin, Update and Delete carry nothing their caller needs
// before its next call, so the client does not wait for their replies. It
// buffers them and sends them with the next request that does need an
// answer, then reads their replies in order before that request's own.
// The client picks each transaction handle (a per-connection counter, so
// a handle is never zero and never reused on its connection), which lets
// it use a transaction before the Begin reply arrives. A session serves
// its frames one at a time, so a read after a pipelined write in the same
// transaction sees the write. The server flushes its replies only when no
// further request is buffered, so the replies to one burst leave in one
// socket write.
//
// Tombstones. A pipelined Update or Delete that fails — or is shed by
// admission control — rolls its transaction back at once. The handle stays
// as a tombstone: every later request on it is answered with the stored
// error until Commit (answered with the error) or Abort (answered OK)
// drops it. A transaction whose pipelined write failed therefore never
// commits its other writes. Tombstones count against
// Config.MaxTxnsPerSession.
//
// Every decoder in this file is defensive: a truncated, oversized, or
// corrupt frame surfaces as a typed error, never a panic or an unbounded
// allocation — the server stays up and the session's transactions are
// reaped normally (wire_test.go fuzzes this property).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"mainline"
	"mainline/internal/arrow"
)

// wireMagic opens every connection; its last byte is the protocol version.
var wireMagic = [8]byte{'M', 'L', 'S', 'E', 'R', 'V', 'E', '2'}

// Frame kinds. Requests are 0x1x/0x2x/0x3x, responses 0x8x, stream frames
// 0x9x. putChunk/putDone continue a DoPut; dataChunk/dataEnd continue a
// DoGet.
const (
	reqBegin       = 0x10
	reqCommit      = 0x11
	reqAbort       = 0x12
	reqInsert      = 0x13
	reqUpdate      = 0x14
	reqDelete      = 0x15
	reqSelect      = 0x16
	reqGetBy       = 0x17
	reqRangeBy     = 0x18
	reqCreateTable = 0x19
	reqCreateIndex = 0x1a
	reqSchema      = 0x1b
	reqDoGet       = 0x20
	reqDoPut       = 0x21
	putChunk       = 0x22
	putDone        = 0x23
	reqPing        = 0x30

	respOK     = 0x80
	respErr    = 0x81
	respCommit = 0x83
	respSlot   = 0x84
	respRow    = 0x85
	respRows   = 0x86
	respSchema = 0x87
	respPut    = 0x88

	dataChunk = 0x90
	dataEnd   = 0x91
)

// kindName names a frame kind for errors and metrics.
func kindName(kind byte) string {
	switch kind {
	case reqBegin:
		return "begin"
	case reqCommit:
		return "commit"
	case reqAbort:
		return "abort"
	case reqInsert:
		return "insert"
	case reqUpdate:
		return "update"
	case reqDelete:
		return "delete"
	case reqSelect:
		return "select"
	case reqGetBy:
		return "getby"
	case reqRangeBy:
		return "rangeby"
	case reqCreateTable:
		return "createtable"
	case reqCreateIndex:
		return "createindex"
	case reqSchema:
		return "schema"
	case reqDoGet:
		return "doget"
	case reqDoPut:
		return "doput"
	case reqPing:
		return "ping"
	default:
		return fmt.Sprintf("0x%02x", kind)
	}
}

// Typed protocol errors. Server-side rejections travel as respErr frames
// carrying a code; the client decodes them back into these sentinels (or
// the engine's own, for engine-originated failures), so errors.Is works
// across the wire.
var (
	// ErrServerBusy is returned when admission control rejects the
	// request: the session cap or the global in-flight request cap is
	// exhausted. Typed, immediate, never a hang — back off and retry.
	ErrServerBusy = errors.New("server: busy (admission limit reached)")
	// ErrDraining is returned for new connections and new requests while
	// the server is shutting down gracefully.
	ErrDraining = errors.New("server: draining (shutting down)")
	// ErrDeadlineExceeded is returned when a request's deadline expired
	// before it completed. Any transaction the request was using has been
	// aborted by the server.
	ErrDeadlineExceeded = errors.New("server: request deadline exceeded")
	// ErrUnknownTable is returned for requests naming a table the catalog
	// does not have.
	ErrUnknownTable = errors.New("server: unknown table")
	// ErrUnknownIndex is returned for indexed reads naming an index the
	// table does not have.
	ErrUnknownIndex = errors.New("server: unknown index")
	// ErrUnknownTxn is returned for requests naming a transaction handle
	// the session does not hold (never begun, already finished, or reaped
	// by a deadline).
	ErrUnknownTxn = errors.New("server: unknown transaction handle")
	// ErrBadRequest is returned for frames that decode to nonsense:
	// truncated payloads, unknown kinds, out-of-range counts.
	ErrBadRequest = errors.New("server: malformed request")
	// ErrFrameTooLarge is returned (and the connection closed) when a
	// frame header announces a payload beyond the configured limit.
	ErrFrameTooLarge = errors.New("server: frame exceeds size limit")
	// ErrTableExists is returned by CreateTable for a name already taken.
	ErrTableExists = errors.New("server: table already exists")
	// ErrTooManyTxns answers a Begin when the session already holds the
	// per-session transaction-handle cap, tombstones included; the client
	// returns it from the transaction's first call.
	ErrTooManyTxns = errors.New("server: too many open transactions on session")
)

// Wire error codes (respErr payload: [u16 code][string message]).
const (
	codeInternal = iota
	codeBusy
	codeDraining
	codeDeadline
	codeUnknownTable
	codeUnknownIndex
	codeUnknownTxn
	codeWriteConflict
	codeNotFound
	codeTxnFinished
	codeReadOnly
	codeEngineClosed
	codeBadRequest
	codeFrameTooLarge
	codeTableExists
	codeTooManyTxns
	codeDegraded
)

// errCode maps an error to its wire code (codeInternal when untyped).
func errCode(err error) uint16 {
	switch {
	case errors.Is(err, ErrServerBusy):
		return codeBusy
	case errors.Is(err, ErrDraining):
		return codeDraining
	case errors.Is(err, ErrDeadlineExceeded):
		return codeDeadline
	case errors.Is(err, ErrUnknownTable):
		return codeUnknownTable
	case errors.Is(err, ErrUnknownIndex):
		return codeUnknownIndex
	case errors.Is(err, ErrUnknownTxn):
		return codeUnknownTxn
	case errors.Is(err, mainline.ErrWriteConflict):
		return codeWriteConflict
	case errors.Is(err, mainline.ErrNotFound):
		return codeNotFound
	case errors.Is(err, mainline.ErrTxnFinished):
		return codeTxnFinished
	case errors.Is(err, mainline.ErrReadOnlyTxn):
		return codeReadOnly
	case errors.Is(err, mainline.ErrEngineClosed):
		return codeEngineClosed
	case errors.Is(err, ErrBadRequest):
		return codeBadRequest
	case errors.Is(err, ErrFrameTooLarge):
		return codeFrameTooLarge
	case errors.Is(err, ErrTableExists):
		return codeTableExists
	case errors.Is(err, ErrTooManyTxns):
		return codeTooManyTxns
	case errors.Is(err, mainline.ErrDegraded):
		return codeDegraded
	default:
		return codeInternal
	}
}

// codeSentinel returns the sentinel a wire code unwraps to (nil for
// codeInternal — the message is all there is).
func codeSentinel(code uint16) error {
	switch code {
	case codeBusy:
		return ErrServerBusy
	case codeDraining:
		return ErrDraining
	case codeDeadline:
		return ErrDeadlineExceeded
	case codeUnknownTable:
		return ErrUnknownTable
	case codeUnknownIndex:
		return ErrUnknownIndex
	case codeUnknownTxn:
		return ErrUnknownTxn
	case codeWriteConflict:
		return mainline.ErrWriteConflict
	case codeNotFound:
		return mainline.ErrNotFound
	case codeTxnFinished:
		return mainline.ErrTxnFinished
	case codeReadOnly:
		return mainline.ErrReadOnlyTxn
	case codeEngineClosed:
		return mainline.ErrEngineClosed
	case codeBadRequest:
		return ErrBadRequest
	case codeFrameTooLarge:
		return ErrFrameTooLarge
	case codeTableExists:
		return ErrTableExists
	case codeTooManyTxns:
		return ErrTooManyTxns
	case codeDegraded:
		return mainline.ErrDegraded
	default:
		return nil
	}
}

// RemoteError is an error decoded from a respErr frame. It unwraps to the
// matching typed sentinel, so errors.Is(err, server.ErrServerBusy) — or
// mainline.ErrWriteConflict — holds on the client side.
type RemoteError struct {
	Code uint16
	Msg  string
}

// Error returns the server-side message.
func (e *RemoteError) Error() string { return e.Msg }

// Unwrap returns the typed sentinel for the error's wire code.
func (e *RemoteError) Unwrap() error { return codeSentinel(e.Code) }

// DecodeRemoteError turns a respErr payload into a *RemoteError.
func DecodeRemoteError(payload []byte) error {
	r := rbuf{b: payload}
	code := r.u16()
	msg := r.str()
	if r.err != nil {
		return fmt.Errorf("%w: undecodable error frame", ErrBadRequest)
	}
	return &RemoteError{Code: code, Msg: msg}
}

// encodeErr builds a respErr payload for err.
func encodeErr(err error) []byte {
	var w wbuf
	w.u16(errCode(err))
	w.str(err.Error())
	return w.b
}

// --- Frame IO ----------------------------------------------------------------

// frameHeaderLen is the fixed frame prefix: kind byte + u32 payload length.
const frameHeaderLen = 5

// DefaultMaxFrame bounds a single frame's payload. Streaming planes chunk
// beneath it, so the limit constrains per-request memory, not table size.
const DefaultMaxFrame = 16 << 20

// writeFrame emits one frame.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	var hdr [frameHeaderLen]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, reusing buf when it is large enough. A
// payload length beyond max returns ErrFrameTooLarge without reading the
// body — the caller must close the connection, since the stream can no
// longer be trusted to be in sync.
func readFrame(r io.Reader, max int, buf []byte) (kind byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > max {
		return 0, nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, n, max)
	}
	if n == 0 {
		return hdr[0], nil, nil
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return hdr[0], buf, nil
}

// --- Payload codec -----------------------------------------------------------

// wbuf is an append-only payload encoder.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)     { w.b = append(w.b, v) }
func (w *wbuf) u16(v uint16)  { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *wbuf) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)   { w.u64(uint64(v)) }
func (w *wbuf) f64(v float64) { w.u64(math.Float64bits(v)) }

// str encodes a length-prefixed string (u16 length: names, not payloads).
func (w *wbuf) str(s string) {
	if len(s) > maxStringLen {
		s = s[:maxStringLen]
	}
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

// bytes32 encodes a u32-length-prefixed byte payload.
func (w *wbuf) bytes32(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}

// rbuf is a bounds-checked payload decoder: the first short read latches
// err and every later read returns zero values, so decoders are straight-
// line code with one error check at the end.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated payload at offset %d", ErrBadRequest, r.off)
	}
}

func (r *rbuf) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail()
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *rbuf) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *rbuf) u16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (r *rbuf) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *rbuf) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *rbuf) i64() int64   { return int64(r.u64()) }
func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *rbuf) str() string {
	n := int(r.u16())
	p := r.take(n)
	return string(p)
}

func (r *rbuf) bytes32() []byte {
	n := int(r.u32())
	p := r.take(n)
	if p == nil {
		return nil
	}
	// Copy: the frame buffer is reused for the next request.
	out := make([]byte, n)
	copy(out, p)
	return out
}

// done verifies the whole payload was consumed; trailing garbage is a
// protocol violation, not padding.
func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadRequest, len(r.b)-r.off)
	}
	return nil
}

// Sanity caps for decoded counts: far above any legitimate request, far
// below what would let a corrupt count drive allocation.
const (
	maxStringLen = 1 << 12 // table/index/column names
	maxListLen   = 1 << 12 // columns, key values per request
	maxRowsResp  = 1 << 20 // rows per respRows frame
)

// Value tags for the `any`-typed scalar codec (row values, index keys,
// predicate bounds).
const (
	tagNull  = 0
	tagInt   = 1
	tagFloat = 2
	tagBytes = 3
	tagStr   = 4
)

// val encodes one scalar. Integers of every signed width collapse to
// int64 — the schema-typed Set on the server side re-checks range against
// the column width.
func (w *wbuf) val(v any) error {
	switch x := v.(type) {
	case nil:
		w.u8(tagNull)
	case int:
		w.u8(tagInt)
		w.i64(int64(x))
	case int8:
		w.u8(tagInt)
		w.i64(int64(x))
	case int16:
		w.u8(tagInt)
		w.i64(int64(x))
	case int32:
		w.u8(tagInt)
		w.i64(int64(x))
	case int64:
		w.u8(tagInt)
		w.i64(x)
	case float64:
		w.u8(tagFloat)
		w.f64(x)
	case float32:
		w.u8(tagFloat)
		w.f64(float64(x))
	case []byte:
		w.u8(tagBytes)
		w.bytes32(x)
	case string:
		w.u8(tagStr)
		w.bytes32([]byte(x))
	default:
		return fmt.Errorf("%w: unsupported value type %T", ErrBadRequest, v)
	}
	return nil
}

// val decodes one scalar.
func (r *rbuf) val() any {
	switch tag := r.u8(); tag {
	case tagNull:
		return nil
	case tagInt:
		return r.i64()
	case tagFloat:
		return r.f64()
	case tagBytes:
		return r.bytes32()
	case tagStr:
		return string(r.bytes32())
	default:
		r.fail()
		return nil
	}
}

// vals encodes a counted scalar list.
func (w *wbuf) vals(vs []any) error {
	if len(vs) > maxListLen {
		return fmt.Errorf("%w: %d values (limit %d)", ErrBadRequest, len(vs), maxListLen)
	}
	w.u16(uint16(len(vs)))
	for _, v := range vs {
		if err := w.val(v); err != nil {
			return err
		}
	}
	return nil
}

// vals decodes a counted scalar list.
func (r *rbuf) vals() []any {
	n := int(r.u16())
	if n > maxListLen {
		r.fail()
		return nil
	}
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]any, n)
	for i := range out {
		out[i] = r.val()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// strs encodes a counted string list (column name lists).
func (w *wbuf) strs(ss []string) error {
	if len(ss) > maxListLen {
		return fmt.Errorf("%w: %d strings (limit %d)", ErrBadRequest, len(ss), maxListLen)
	}
	w.u16(uint16(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
	return nil
}

// strs decodes a counted string list.
func (r *rbuf) strs() []string {
	n := int(r.u16())
	if n > maxListLen {
		r.fail()
		return nil
	}
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// schema encodes a table schema (CreateTable request, Schema response).
func (w *wbuf) schema(s *mainline.Schema) error {
	if len(s.Fields) > maxListLen {
		return fmt.Errorf("%w: %d fields", ErrBadRequest, len(s.Fields))
	}
	w.u16(uint16(len(s.Fields)))
	for _, f := range s.Fields {
		w.str(f.Name)
		w.u8(byte(f.Type))
		if f.Nullable {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
	return nil
}

// schema decodes a table schema.
func (r *rbuf) schema() *mainline.Schema {
	n := int(r.u16())
	if n > maxListLen {
		r.fail()
		return nil
	}
	if r.err != nil {
		return nil
	}
	fields := make([]mainline.Field, n)
	for i := range fields {
		fields[i].Name = r.str()
		typ := arrow.TypeID(r.u8())
		if typ == arrow.INVALID || typ > arrow.DICT32 {
			r.fail()
			return nil
		}
		fields[i].Type = typ
		fields[i].Nullable = r.u8() == 1
	}
	if r.err != nil {
		return nil
	}
	return mainline.NewSchema(fields...)
}

// PredOp is a wire predicate operator for filtered DoGet.
type PredOp byte

// Predicate operators (mirroring mainline.Eq/Lt/Le/Gt/Ge/Between).
const (
	PredEq PredOp = iota
	PredLt
	PredLe
	PredGt
	PredGe
	PredBetween
)

// WirePred is a single-column predicate as carried by a DoGet request.
type WirePred struct {
	Col    string
	Op     PredOp
	V1, V2 any
}

// pred encodes an optional predicate (presence byte first).
func (w *wbuf) pred(p *WirePred) error {
	if p == nil {
		w.u8(0)
		return nil
	}
	w.u8(1)
	w.str(p.Col)
	w.u8(byte(p.Op))
	if err := w.val(p.V1); err != nil {
		return err
	}
	return w.val(p.V2)
}

// pred decodes an optional predicate.
func (r *rbuf) pred() *WirePred {
	if r.u8() == 0 {
		return nil
	}
	p := &WirePred{}
	p.Col = r.str()
	p.Op = PredOp(r.u8())
	p.V1 = r.val()
	p.V2 = r.val()
	if r.err != nil || p.Op > PredBetween {
		r.fail()
		return nil
	}
	return p
}

// compilePred turns a wire predicate into the engine's typed Pred.
func compilePred(p *WirePred) (*mainline.Pred, error) {
	switch p.Op {
	case PredEq:
		return mainline.Eq(p.Col, p.V1), nil
	case PredLt:
		return mainline.Lt(p.Col, p.V1), nil
	case PredLe:
		return mainline.Le(p.Col, p.V1), nil
	case PredGt:
		return mainline.Gt(p.Col, p.V1), nil
	case PredGe:
		return mainline.Ge(p.Col, p.V1), nil
	case PredBetween:
		return mainline.Between(p.Col, p.V1, p.V2), nil
	default:
		return nil, fmt.Errorf("%w: predicate op %d", ErrBadRequest, p.Op)
	}
}
