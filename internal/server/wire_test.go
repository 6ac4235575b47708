package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"mainline"
	"mainline/internal/arrow"
)

// mkFrame builds a raw frame for hand-crafted protocol abuse.
func mkFrame(kind byte, payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, kind, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestReadFrameTruncated(t *testing.T) {
	full := mkFrame(reqPing, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	for n := 0; n < len(full); n++ {
		_, _, err := readFrame(bytes.NewReader(full[:n]), DefaultMaxFrame, nil)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(full))
		}
	}
	kind, payload, err := readFrame(bytes.NewReader(full), DefaultMaxFrame, nil)
	if err != nil || kind != reqPing || len(payload) != 8 {
		t.Fatalf("full frame: kind=%#x len=%d err=%v", kind, len(payload), err)
	}
}

func TestReadFrameOversized(t *testing.T) {
	hdr := []byte{reqPing, 0xff, 0xff, 0xff, 0x7f} // ~2 GiB declared length
	_, _, err := readFrame(bytes.NewReader(hdr), 1<<10, nil)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge from header alone, got %v", err)
	}
}

// beginPayload encodes a Begin request: [deadline u32][handle u64][flags u8].
func beginPayload(handle uint64, flags byte) []byte {
	var w wbuf
	w.u32(0)
	w.u64(handle)
	w.u8(flags)
	return w.b
}

// rawConn handshakes a raw protocol connection for frame-level abuse.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(wireMagic[:]); err != nil {
		t.Fatal(err)
	}
	kind, _, err := readFrame(conn, DefaultMaxFrame, nil)
	if err != nil || kind != respOK {
		t.Fatalf("handshake: kind=%#x err=%v", kind, err)
	}
	return conn
}

// TestCorruptRequestsSurviveAsTypedErrors drives hand-mangled but
// well-framed requests at a live server: every one must come back as a
// respErr (never a panic, never a wedged connection), and the session must
// stay usable afterwards.
func TestCorruptRequestsSurviveAsTypedErrors(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := mustDial(t, addr)
	if err := c.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}

	dl := []byte{0, 0, 0, 0} // zero deadline prefix
	cases := []struct {
		name    string
		kind    byte
		payload []byte
	}{
		{"empty begin", reqBegin, nil}, // missing even the deadline
		{"begin missing flags", reqBegin, append(append([]byte{}, dl...), 1, 0, 0, 0, 0, 0, 0, 0)},
		{"begin trailing garbage", reqBegin, append(append([]byte{}, dl...), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xde, 0xad)},
		{"commit truncated id", reqCommit, append(append([]byte{}, dl...), 1, 2, 3)},
		{"insert empty", reqInsert, dl},
		{"insert huge col count", reqInsert, append(append(append([]byte{}, dl...), 1, 0, 0, 0, 0, 0, 0, 0, 4, 'i', 't', 'e', 'm'), 0xff, 0xff)},
		{"select bad string len", reqSelect, append(append(append([]byte{}, dl...), 1, 0, 0, 0, 0, 0, 0, 0), 0xff, 0xff)},
		{"getby bad value tag", reqGetBy, append(append(append([]byte{}, dl...),
			1, 0, 0, 0, 0, 0, 0, 0, // txn id
			4, 0, 'i', 't', 'e', 'm', // table
			2, 0, 'i', 'd'), // index name
			1, 0, 0x7f)}, // one value, invalid tag
		{"createtable bad type", reqCreateTable, append(append(append([]byte{}, dl...),
			4, 0, 'i', 't', 'e', 'm'),
			1, 0, 2, 0, 'i', 'd', 0xee, 0)}, // one field, type 0xee
		{"rangeby missing limit", reqRangeBy, append(append(append([]byte{}, dl...),
			1, 0, 0, 0, 0, 0, 0, 0,
			4, 0, 'i', 't', 'e', 'm',
			2, 0, 'i', 'd'),
			0, 0, 0, 0, 0, 0)}, // lo/hi/cols empty, limit missing
		{"unknown kind", 0x6f, dl},
		{"doget garbage", reqDoGet, append(append([]byte{}, dl...), 0xff, 0xff, 0xff)},
	}
	conn := rawConn(t, addr)
	for _, tc := range cases {
		if _, err := conn.Write(mkFrame(tc.kind, tc.payload)); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		kind, payload, err := readFrame(conn, DefaultMaxFrame, nil)
		if err != nil {
			t.Fatalf("%s: connection died: %v", tc.name, err)
		}
		if kind != respErr {
			t.Fatalf("%s: got %s, want respErr", tc.name, kindName(kind))
		}
		rerr := DecodeRemoteError(payload)
		if rerr == nil {
			t.Fatalf("%s: empty error payload", tc.name)
		}
	}
	// The session survived every malformed request.
	var w wbuf
	w.u32(0)
	if _, err := conn.Write(mkFrame(reqPing, w.b)); err != nil {
		t.Fatal(err)
	}
	kind, _, err := readFrame(conn, DefaultMaxFrame, nil)
	if err != nil || kind != respOK {
		t.Fatalf("ping after abuse: kind=%#x err=%v", kind, err)
	}
	// And the healthy client still works.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestBeginHandleRules: a Begin naming handle 0, a live handle or a
// tombstone is a bad request, and the session survives it.
func TestBeginHandleRules(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	conn := rawConn(t, addr)
	send := func(kind byte, payload []byte) error {
		t.Helper()
		if _, err := conn.Write(mkFrame(kind, payload)); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		kind, resp, err := readFrame(conn, DefaultMaxFrame, nil)
		if err != nil {
			t.Fatalf("connection died: %v", err)
		}
		if kind == respErr {
			return DecodeRemoteError(resp)
		}
		return nil
	}
	if err := send(reqBegin, beginPayload(0, 0)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Begin(handle 0) = %v, want ErrBadRequest", err)
	}
	if err := send(reqBegin, beginPayload(7, 0)); err != nil {
		t.Fatal(err)
	}
	if err := send(reqBegin, beginPayload(7, 0)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Begin(live handle) = %v, want ErrBadRequest", err)
	}
	// A failed Delete turns handle 7 into a tombstone.
	var del wbuf
	del.u32(0)
	del.u64(7)
	del.str("ghost")
	del.u64(0)
	if err := send(reqDelete, del.b); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("delete on a missing table = %v", err)
	}
	if err := send(reqBegin, beginPayload(7, 0)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Begin(tombstoned handle) = %v, want ErrBadRequest", err)
	}
	var ping wbuf
	ping.u32(0)
	if err := send(reqPing, ping.b); err != nil {
		t.Fatalf("ping after rejected Begins: %v", err)
	}
}

// TestOldProtocolVersion: a client speaking an earlier protocol version
// is told so with a typed error rather than a bare close.
func TestOldProtocolVersion(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("MLSERVE1")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind, payload, err := readFrame(conn, DefaultMaxFrame, nil)
	if err != nil || kind != respErr {
		t.Fatalf("handshake with MLSERVE1: kind=%#x err=%v", kind, err)
	}
	rerr := DecodeRemoteError(payload)
	if !errors.Is(rerr, ErrBadRequest) || !strings.Contains(rerr.Error(), "MLSERVE1") || !strings.Contains(rerr.Error(), "MLSERVE2") {
		t.Fatalf("version rejection = %v, want ErrBadRequest naming both versions", rerr)
	}
}

// TestOversizedFrameClosesWithTypedError: a frame above MaxFrame cannot be
// resynchronized; the server must answer ErrFrameTooLarge and hang up —
// reaping any open transaction — rather than read 2 GiB or panic.
func TestOversizedFrameClosesWithTypedError(t *testing.T) {
	eng, srv, addr := startServer(t, Config{MaxFrame: 1 << 12})
	c := mustDial(t, addr, WithMaxFrame(1<<20))
	if err := c.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}

	conn := rawConn(t, addr)
	// Open a transaction on the raw connection and violate the frame cap
	// in the same write: the Begin reply, still buffered when the
	// oversized header is read, must go out before the error and the close.
	burst := append(mkFrame(reqBegin, beginPayload(1, 0)), mkFrame(reqInsert, make([]byte, 1<<13))...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if kind, _, err := readFrame(conn, DefaultMaxFrame, nil); err != nil || kind != respOK {
		t.Fatalf("begin: kind=%#x err=%v", kind, err)
	}
	kind, payload, err := readFrame(conn, DefaultMaxFrame, nil)
	if err != nil || kind != respErr {
		t.Fatalf("oversized: kind=%#x err=%v", kind, err)
	}
	if err := DecodeRemoteError(payload); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// Connection must be closed by the server...
	if _, _, err := readFrame(conn, DefaultMaxFrame, nil); err == nil {
		t.Fatal("connection still open after frame violation")
	}
	// ...and the orphaned transaction reaped.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().ActiveTxns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("txn leaked after frame violation (reaped=%d)", srv.Stats().TxnsReaped)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTornMidRequestReapsTxn: a connection that dies mid-frame (half a
// header, half a payload) must not leak the session's transactions.
func TestTornMidRequestReapsTxn(t *testing.T) {
	eng, _, addr := startServer(t, Config{})
	c := mustDial(t, addr)
	if err := c.CreateTable("item", itemSchema()); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 3, 9} { // mid-header, mid-length, mid-payload
		conn := rawConn(t, addr)
		if _, err := conn.Write(mkFrame(reqBegin, beginPayload(1, 0))); err != nil {
			t.Fatal(err)
		}
		if kind, _, err := readFrame(conn, DefaultMaxFrame, nil); err != nil || kind != respOK {
			t.Fatalf("begin: kind=%#x err=%v", kind, err)
		}
		frame := mkFrame(reqInsert, []byte{0, 0, 0, 0, 1, 2, 3, 4, 5, 6})
		if _, err := conn.Write(frame[:cut]); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		deadline := time.Now().Add(5 * time.Second)
		for eng.Stats().ActiveTxns != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("cut=%d: txn leaked after torn frame", cut)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// FuzzRequestDecoders throws arbitrary bytes at every request decoder the
// session dispatch uses. The property under test: decoding never panics
// and always terminates (the latched-error rbuf guarantees both).
func FuzzRequestDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 'i', 't', 'e', 'm'})
	f.Add(beginPayload(1, 2))
	var seed wbuf
	seed.u32(0)
	seed.u64(1)
	seed.str("item")
	seed.strs([]string{"id", "name"})
	seed.vals([]any{int64(7), "x", nil, 3.5, []byte{1, 2}})
	f.Add(seed.b)
	var sch wbuf
	sch.u32(0)
	sch.str("t")
	sch.schema(itemSchema())
	f.Add(sch.b)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every decode shape the handlers use, in their field order.
		r := rbuf{b: data}
		_ = r.u32()
		_ = r.u64()
		_ = r.u8()
		_ = r.done()

		r = rbuf{b: data}
		_ = r.u32()
		_ = r.u64()
		_ = r.str()
		_ = r.strs()
		_ = r.vals()
		_ = r.u32()
		_ = r.done()

		r = rbuf{b: data}
		_ = r.u32()
		_ = r.str()
		_ = r.schema()
		_ = r.done()

		r = rbuf{b: data}
		_ = r.u32()
		_ = r.str()
		_ = r.strs()
		_ = r.pred()
		_ = r.done()
	})
}

// FuzzServerFrame drives whole fuzz-generated frames at a live server over
// TCP: whatever arrives, the server must respond or hang up — and never
// leak a transaction.
func FuzzServerFrame(f *testing.F) {
	eng, err := mainline.Open()
	if err != nil {
		f.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.CreateTable("item", itemSchema()); err != nil {
		f.Fatal(err)
	}
	srv := New(eng, Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Listen()
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()

	f.Add(byte(reqBegin), beginPayload(1, 1))
	f.Add(byte(reqBegin), beginPayload(0, 0))
	f.Add(byte(reqInsert), []byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 'i', 't', 'e', 'm', 0, 0, 0, 0})
	f.Add(byte(reqDoGet), []byte{0, 0, 0, 0, 4, 0, 'i', 't', 'e', 'm', 0, 0, 0})
	f.Add(byte(0xff), []byte{})
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		if len(payload) > 1<<16 {
			return
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial failed (fd pressure)")
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(wireMagic[:]); err != nil {
			return
		}
		if k, _, err := readFrame(conn, DefaultMaxFrame, nil); err != nil || k != respOK {
			t.Fatalf("handshake: %v", err)
		}
		if _, err := conn.Write(mkFrame(kind, payload)); err != nil {
			return
		}
		// The server answers with *something* or closes; either way this
		// read terminates (bounded by the conn deadline), and the server
		// stays alive for the next iteration. Txn-leak properties are
		// asserted by the deterministic torn-frame tests — fuzz workers
		// run in parallel against one engine, so a global ActiveTxns
		// check here would race other workers' in-flight requests.
		_, _, _ = readFrame(conn, DefaultMaxFrame, nil)
	})
}

var _ = io.Discard // keep io imported for future cases

// hugeBufferIPC is an Arrow IPC stream whose batch header declares a
// 1<<63-byte value buffer for its one INT64 column — a length no reader
// may allocate up front.
func hugeBufferIPC() []byte {
	var w wbuf
	w.b = append(w.b, "MLARROW1"...)
	w.u8(1) // schema message
	w.u32(10)
	w.u32(1) // one field
	w.u16(2)
	w.b = append(w.b, "id"...)
	w.u8(byte(arrow.INT64))
	w.u8(0)
	w.b = append(w.b, make([]byte, 6)...) // pad the header to 8
	w.u8(2)                               // batch message
	w.u32(8 + 58)
	w.u32(1) // rows
	w.u32(1) // columns
	w.u8(byte(arrow.INT64))
	w.u32(0) // null count
	w.u8(0)  // no dictionary
	w.u32(0)
	for _, n := range []uint64{0, 0, 1 << 63, 0, 0, 0} {
		w.u64(n)
	}
	w.b = append(w.b, make([]byte, 6)...)
	return w.b
}

// TestDoPutHugeBufferLengthRejected sends a DoPut whose IPC batch header
// declares an absurd buffer length: the put fails with ErrBadRequest and
// the server keeps serving other connections.
func TestDoPutHugeBufferLengthRejected(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	c := mustDial(t, addr)
	if err := c.CreateTable("item", mainline.NewSchema(mainline.Field{Name: "id", Type: mainline.INT64})); err != nil {
		t.Fatal(err)
	}
	conn := rawConn(t, addr)
	var req wbuf
	req.u32(0) // no deadline
	req.str("item")
	frames := append(mkFrame(reqDoPut, req.b), mkFrame(putChunk, hugeBufferIPC())...)
	frames = append(frames, mkFrame(putDone, nil)...)
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind, payload, err := readFrame(conn, DefaultMaxFrame, nil)
	if err != nil {
		t.Fatalf("connection died: %v", err)
	}
	if kind != respErr || !errors.Is(DecodeRemoteError(payload), ErrBadRequest) {
		t.Fatalf("got %s %v, want respErr ErrBadRequest", kindName(kind), DecodeRemoteError(payload))
	}
	if err := mustDial(t, addr).Ping(); err != nil {
		t.Fatalf("server stopped answering after the malformed put: %v", err)
	}
}
