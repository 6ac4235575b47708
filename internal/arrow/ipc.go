package arrow

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"mainline/internal/util"
)

// IPC stream framing.
//
// Real Arrow IPC frames flatbuffers metadata followed by a body of 8-byte
// aligned buffers. Flatbuffers is not in the Go standard library, so this
// implementation keeps the load-bearing property — record batch bodies are
// the raw column buffers, written and read without transformation — and
// replaces the metadata encoding with a compact little-endian binary header.
// A frozen block therefore goes onto the wire with zero serialization work
// beyond a ~100-byte header, which is exactly the effect the paper's export
// experiments measure (§5, §6.3).
//
// Stream layout:
//
//	magic   [8]byte  "MLARROW1"
//	message*         (type byte, u32 headerLen, header, padded body)
//	eos              (type byte 0, u32 0)

var streamMagic = [8]byte{'M', 'L', 'A', 'R', 'R', 'O', 'W', '1'}

// Message type tags.
const (
	msgEOS    = 0
	msgSchema = 1
	msgBatch  = 2
)

var (
	// ErrBadMagic indicates the stream does not start with the IPC magic.
	ErrBadMagic = errors.New("arrow/ipc: bad stream magic")
	// ErrNoSchema indicates a record batch arrived before any schema.
	ErrNoSchema = errors.New("arrow/ipc: record batch before schema")
)

var pad [8]byte

// Writer emits an IPC stream. Not safe for concurrent use.
type Writer struct {
	w           *bufio.Writer
	wroteMagic  bool
	wroteSchema bool
	scratch     []byte
	// BytesWritten counts payload bytes handed to the underlying writer.
	BytesWritten int64
}

// NewWriter wraps w in an IPC stream writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (wr *Writer) write(p []byte) error {
	n, err := wr.w.Write(p)
	wr.BytesWritten += int64(n)
	return err
}

func (wr *Writer) writePadded(p []byte) error {
	if err := wr.write(p); err != nil {
		return err
	}
	if rem := len(p) % 8; rem != 0 {
		return wr.write(pad[:8-rem])
	}
	return nil
}

// WriteSchema emits the stream magic and schema message.
func (wr *Writer) WriteSchema(s *Schema) error {
	if !wr.wroteMagic {
		if err := wr.write(streamMagic[:]); err != nil {
			return err
		}
		wr.wroteMagic = true
	}
	hdr := wr.scratch[:0]
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(s.NumFields()))
	for _, f := range s.Fields {
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(f.Name)))
		hdr = append(hdr, f.Name...)
		hdr = append(hdr, byte(f.Type))
		if f.Nullable {
			hdr = append(hdr, 1)
		} else {
			hdr = append(hdr, 0)
		}
	}
	wr.scratch = hdr
	if err := wr.writeMessageHeader(msgSchema, hdr); err != nil {
		return err
	}
	wr.wroteSchema = true
	return nil
}

func (wr *Writer) writeMessageHeader(typ byte, hdr []byte) error {
	var h [5]byte
	h[0] = typ
	binary.LittleEndian.PutUint32(h[1:], uint32(len(hdr)))
	if err := wr.write(h[:]); err != nil {
		return err
	}
	return wr.writePadded(hdr)
}

// arrayBufs lists the buffers of one array in wire order.
func arrayBufs(a *Array) [][]byte {
	bufs := [][]byte{a.Validity, a.Offsets, a.Values}
	if a.Dict != nil {
		bufs = append(bufs, a.Dict.Validity, a.Dict.Offsets, a.Dict.Values)
	}
	return bufs
}

// WriteBatch emits one record batch. Column buffers are written directly —
// the zero-copy path for frozen blocks.
func (wr *Writer) WriteBatch(rb *RecordBatch) error {
	if !wr.wroteSchema {
		if err := wr.WriteSchema(rb.Schema); err != nil {
			return err
		}
	}
	hdr := wr.scratch[:0]
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(rb.NumRows))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(rb.Columns)))
	for _, c := range rb.Columns {
		hdr = append(hdr, byte(c.Type))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(c.NullCount))
		if c.Dict != nil {
			hdr = append(hdr, 1)
			hdr = binary.LittleEndian.AppendUint32(hdr, uint32(c.Dict.Length))
		} else {
			hdr = append(hdr, 0)
			hdr = binary.LittleEndian.AppendUint32(hdr, 0)
		}
		// Always six buffer-length slots (dict slots zero when absent) so
		// the header layout is fixed per column.
		bufs := arrayBufs(c)
		for j := 0; j < 6; j++ {
			var n int
			if j < len(bufs) {
				n = len(bufs[j])
			}
			hdr = binary.LittleEndian.AppendUint64(hdr, uint64(n))
		}
	}
	wr.scratch = hdr
	if err := wr.writeMessageHeader(msgBatch, hdr); err != nil {
		return err
	}
	for _, c := range rb.Columns {
		for _, buf := range arrayBufs(c) {
			if len(buf) == 0 {
				continue
			}
			if err := wr.writePadded(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close writes the end-of-stream marker and flushes.
func (wr *Writer) Close() error {
	if !wr.wroteMagic {
		if err := wr.write(streamMagic[:]); err != nil {
			return err
		}
	}
	var h [5]byte
	h[0] = msgEOS
	if err := wr.write(h[:]); err != nil {
		return err
	}
	return wr.w.Flush()
}

// Flush flushes buffered output without closing the stream.
func (wr *Writer) Flush() error { return wr.w.Flush() }

// WriteTable writes a schema, all batches of t, and the EOS marker.
func WriteTable(w io.Writer, t *Table) error {
	wr := NewWriter(w)
	if err := wr.WriteSchema(t.Schema); err != nil {
		return err
	}
	for _, b := range t.Batches {
		if err := wr.WriteBatch(b); err != nil {
			return err
		}
	}
	return wr.Close()
}

// EncodeBatch writes rb as a standalone stream — its schema, rb and the
// end-of-stream marker — the form DecodeBatch reads back.
func EncodeBatch(rb *RecordBatch) ([]byte, error) {
	var buf bytes.Buffer
	wr := NewWriter(&buf)
	if err := wr.WriteBatch(rb); err != nil {
		return nil, err
	}
	if err := wr.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Reader consumes an IPC stream. The stream is untrusted: every length in
// a header is checked against what the header can hold or the row count
// and type imply before anything is allocated or sliced, and every batch
// is checked so that no Array accessor can index out of range.
type Reader struct {
	src       source
	schema    *Schema
	readMagic bool
}

// source yields a stream's bytes. next returns the next n bytes, with
// io.EOF when none remain and io.ErrUnexpectedEOF when fewer than n do;
// skip drops n bytes.
type source interface {
	next(n int) ([]byte, error)
	skip(n int) error
}

// NewReader wraps r in an IPC stream reader. Buffers are allocated as
// their bytes arrive.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: streamSource{bufio.NewReaderSize(r, 1<<16)}}
}

// DecodeBatch decodes a stream held whole in memory that carries exactly
// one record batch, as EncodeBatch writes it. The batch's buffers are
// sliced out of data, not copied, so data must stay unchanged while the
// batch is in use. The checks are the streaming Reader's.
func DecodeBatch(data []byte) (*RecordBatch, error) {
	return oneBatch(&Reader{src: &bytesSource{data: data}})
}

// oneBatch reads a stream's only record batch.
func oneBatch(rd *Reader) (*RecordBatch, error) {
	rb, err := rd.Next()
	if err == io.EOF {
		return nil, fmt.Errorf("arrow/ipc: stream holds no record batch")
	}
	if err != nil {
		return nil, err
	}
	if _, err := rd.Next(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("arrow/ipc: stream holds more than one record batch")
		}
		return nil, err
	}
	return rb, nil
}

// Schema returns the stream schema once a schema message has been read.
func (rd *Reader) Schema() *Schema { return rd.schema }

// readStep is the most a stream read allocates ahead of the bytes it has
// received: buffers up to a block's size take one exact allocation,
// longer ones grow as their bytes arrive.
const readStep = 1 << 20

// streamSource reads from an io.Reader into fresh buffers.
type streamSource struct{ r *bufio.Reader }

func (s streamSource) next(n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readStep))
	for len(buf) < n {
		start := len(buf)
		buf = append(buf, make([]byte, min(n-start, readStep))...)
		if _, err := io.ReadFull(s.r, buf[start:]); err != nil {
			if err == io.EOF && start > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

func (s streamSource) skip(n int) error {
	_, err := s.r.Discard(n)
	return err
}

// bytesSource slices a stream held in memory; nothing is copied.
type bytesSource struct {
	data []byte
	off  int
}

func (s *bytesSource) next(n int) ([]byte, error) {
	if rem := len(s.data) - s.off; n > rem {
		s.off = len(s.data)
		if rem == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	b := s.data[s.off : s.off+n : s.off+n]
	s.off += n
	return b, nil
}

func (s *bytesSource) skip(n int) error {
	_, err := s.next(n)
	return err
}

// readPadded reads an n-byte header or buffer and the padding after it.
func (rd *Reader) readPadded(n int) ([]byte, error) {
	buf, err := rd.src.next(n)
	if rem := n % 8; err == nil && rem != 0 {
		err = rd.src.skip(8 - rem)
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return buf, err
}

// Next returns the next record batch, or io.EOF at end of stream. Schema
// messages are consumed transparently.
func (rd *Reader) Next() (*RecordBatch, error) {
	if !rd.readMagic {
		m, err := rd.src.next(len(streamMagic))
		if err != nil {
			return nil, err
		}
		if string(m) != string(streamMagic[:]) {
			return nil, ErrBadMagic
		}
		rd.readMagic = true
	}
	for {
		h, err := rd.src.next(5)
		if err != nil {
			return nil, err
		}
		typ := h[0]
		hdrLen := int(binary.LittleEndian.Uint32(h[1:]))
		if typ == msgEOS {
			return nil, io.EOF
		}
		hdr, err := rd.readPadded(hdrLen)
		if err != nil {
			return nil, err
		}
		switch typ {
		case msgSchema:
			s, err := decodeSchema(hdr)
			if err != nil {
				return nil, err
			}
			rd.schema = s
		case msgBatch:
			if rd.schema == nil {
				return nil, ErrNoSchema
			}
			return rd.readBatch(hdr)
		default:
			return nil, fmt.Errorf("arrow/ipc: unknown message type %d", typ)
		}
	}
}

func decodeSchema(hdr []byte) (*Schema, error) {
	if len(hdr) < 4 {
		return nil, fmt.Errorf("arrow/ipc: short schema header")
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	hdr = hdr[4:]
	if n > len(hdr)/4 { // every field takes at least 4 header bytes
		return nil, fmt.Errorf("arrow/ipc: schema header of %d bytes cannot hold %d fields", len(hdr), n)
	}
	s := &Schema{Fields: make([]Field, 0, n)}
	for i := 0; i < n; i++ {
		if len(hdr) < 2 {
			return nil, fmt.Errorf("arrow/ipc: truncated schema field %d", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(hdr))
		hdr = hdr[2:]
		if len(hdr) < nameLen+2 {
			return nil, fmt.Errorf("arrow/ipc: truncated schema field %d", i)
		}
		name := string(hdr[:nameLen])
		typ := TypeID(hdr[nameLen])
		if typ == INVALID || typ > DICT32 {
			return nil, fmt.Errorf("arrow/ipc: schema field %d has unknown type %d", i, typ)
		}
		nullable := hdr[nameLen+1] == 1
		hdr = hdr[nameLen+2:]
		s.Fields = append(s.Fields, Field{Name: name, Type: typ, Nullable: nullable})
	}
	return s, nil
}

func (rd *Reader) readBatch(hdr []byte) (*RecordBatch, error) {
	if len(hdr) < 8 {
		return nil, fmt.Errorf("arrow/ipc: short batch header")
	}
	numRows := int(binary.LittleEndian.Uint32(hdr))
	ncols := int(binary.LittleEndian.Uint32(hdr[4:]))
	hdr = hdr[8:]
	if ncols != rd.schema.NumFields() || len(hdr) < ncols*colHeaderLen {
		return nil, fmt.Errorf("arrow/ipc: batch header of %d bytes for %d columns, schema has %d", len(hdr), ncols, rd.schema.NumFields())
	}
	type colMeta struct {
		typ       TypeID
		nullCount int
		dictLen   int
		hasDict   bool
		bufLens   [6]uint64
	}
	metas := make([]colMeta, ncols)
	for i := range metas {
		m := &metas[i]
		m.typ = TypeID(hdr[0])
		m.nullCount = int(binary.LittleEndian.Uint32(hdr[1:]))
		m.hasDict = hdr[5] == 1
		m.dictLen = int(binary.LittleEndian.Uint32(hdr[6:]))
		hdr = hdr[10:]
		for j := 0; j < 6; j++ {
			m.bufLens[j] = binary.LittleEndian.Uint64(hdr)
			hdr = hdr[8:]
		}
		if m.typ != rd.schema.Fields[i].Type || m.hasDict != (m.typ == DICT32) {
			return nil, fmt.Errorf("arrow/ipc: column %d header type %s does not match field type %s", i, m.typ, rd.schema.Fields[i].Type)
		}
		lim := bufLimits(m.typ, numRows, m.dictLen)
		for j, n := range m.bufLens {
			if n > lim[j] {
				return nil, fmt.Errorf("arrow/ipc: column %d buffer %d of %d bytes exceeds the %d a %d-row %s column can hold", i, j, n, lim[j], numRows, m.typ)
			}
		}
	}
	cols := make([]*Array, ncols)
	for i, m := range metas {
		bufs := make([][]byte, 6)
		for j := 0; j < 6; j++ {
			if m.bufLens[j] == 0 {
				continue
			}
			b, err := rd.readPadded(int(m.bufLens[j])) // bounded by bufLimits
			if err != nil {
				return nil, err
			}
			bufs[j] = b
		}
		a := &Array{
			Type:      m.typ,
			Length:    numRows,
			NullCount: m.nullCount,
			Validity:  bufs[0],
			Offsets:   bufs[1],
			Values:    bufs[2],
		}
		if m.hasDict {
			a.Dict = &Array{Type: STRING, Length: m.dictLen, Validity: bufs[3], Offsets: bufs[4], Values: bufs[5]}
		}
		if err := a.validate(); err != nil {
			return nil, err
		}
		if err := checkBuffers(a); err != nil {
			return nil, err
		}
		cols[i] = a
	}
	return NewRecordBatch(rd.schema, cols)
}

// colHeaderLen is one column's batch-header size: type, null count, dict
// flag, dict length, six buffer lengths.
const colHeaderLen = 10 + 6*8

// bufLimits returns the largest length each of a column's six wire
// buffers can have for its type and row counts; 0 means the type has no
// such buffer. Buffers may be padded to 8 bytes, and bitmaps may carry the
// slack a builder's growth leaves.
func bufLimits(t TypeID, rows, dictRows int) (lim [6]uint64) {
	bitmap := func(n int) uint64 { return uint64(util.BitmapBytes(n + 64)) }
	width := func(n, w int) uint64 { return uint64(util.Align8(n * w)) }
	lim[0] = bitmap(rows)
	switch {
	case t.FixedWidth():
		lim[2] = width(rows, t.ByteWidth())
	case t == BOOL:
		lim[2] = bitmap(rows)
	case t.VarLen():
		lim[1] = width(rows+1, 4)
		lim[2] = math.MaxInt32
	case t == DICT32:
		lim[2] = width(rows, 4)
		lim[3] = bitmap(dictRows)
		lim[4] = width(dictRows+1, 4)
		lim[5] = math.MaxInt32
	}
	return lim
}

// checkBuffers verifies what validate leaves to trusted producers: a
// validity bitmap covering every row, non-negative non-decreasing offsets,
// and dictionary codes inside the dictionary.
func checkBuffers(a *Array) error {
	if a.Validity != nil && len(a.Validity) < (a.Length+7)/8 {
		return fmt.Errorf("arrow/ipc: %d-row column has a %d-byte validity bitmap", a.Length, len(a.Validity))
	}
	switch {
	case a.Type.VarLen():
		offs := a.Offsets[:(a.Length+1)*4]
		prev := int32(0)
		for i := 0; i < len(offs); i += 4 {
			o := int32(binary.LittleEndian.Uint32(offs[i:]))
			if o < prev {
				return fmt.Errorf("arrow/ipc: offset %d is %d, below its predecessor or zero", i/4, o)
			}
			prev = o
		}
	case a.Type == DICT32:
		if err := checkBuffers(a.Dict); err != nil {
			return err
		}
		codes, n := a.Values[:a.Length*4], uint32(a.Dict.Length)
		for i := 0; i < len(codes); i += 4 {
			// A NULL row's code is never read, so only a valid row's must
			// lie inside the dictionary.
			if c := binary.LittleEndian.Uint32(codes[i:]); c >= n && !a.IsNull(i/4) {
				return fmt.Errorf("arrow/ipc: dictionary code %d outside a %d-entry dictionary", int32(c), n)
			}
		}
	}
	return nil
}

// ReadTable consumes an entire stream into a Table.
func ReadTable(r io.Reader) (*Table, error) {
	rd := NewReader(r)
	var t *Table
	for {
		rb, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if t == nil {
			t = &Table{Schema: rd.Schema()}
		}
		t.Batches = append(t.Batches, rb)
	}
	if t == nil {
		if rd.Schema() == nil {
			return nil, fmt.Errorf("arrow/ipc: empty stream")
		}
		t = &Table{Schema: rd.Schema()}
	}
	return t, nil
}
