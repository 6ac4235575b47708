package arrow

import (
	"bytes"
	"io"
	"testing"
	"unsafe"

	"mainline/internal/util"
)

func sampleBatch(t *testing.T, rows int) (*Schema, *RecordBatch) {
	t.Helper()
	schema := NewSchema(
		Field{"id", INT64, false},
		Field{"name", STRING, true},
		Field{"qty", INT32, false},
		Field{"color", DICT32, false},
	)
	ids := NewBuilder(INT64)
	names := NewBuilder(STRING)
	qty := NewBuilder(INT32)
	color := NewBuilder(DICT32)
	colors := []string{"red", "green", "blue"}
	for i := 0; i < rows; i++ {
		ids.AppendInt64(int64(i) * 7)
		if i%5 == 3 {
			names.AppendNull()
		} else {
			names.AppendString("name-" + string(rune('a'+i%26)))
		}
		qty.AppendInt32(int32(i % 100))
		color.AppendString(colors[i%3])
	}
	rb, err := NewRecordBatch(schema, []*Array{ids.Finish(), names.Finish(), qty.Finish(), color.Finish()})
	if err != nil {
		t.Fatal(err)
	}
	return schema, rb
}

func TestIPCRoundTrip(t *testing.T) {
	schema, rb := sampleBatch(t, 100)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteSchema(schema); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(rb); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Schema().Equal(schema) {
		t.Fatalf("schema mismatch: %s vs %s", r.Schema(), schema)
	}
	if got.NumRows != rb.NumRows {
		t.Fatalf("rows = %d, want %d", got.NumRows, rb.NumRows)
	}
	if Checksum(got) != Checksum(rb) {
		t.Fatal("checksum mismatch after round trip")
	}
	for i := 0; i < rb.NumRows; i++ {
		if got.Columns[0].Int64(i) != rb.Columns[0].Int64(i) {
			t.Fatalf("id[%d] mismatch", i)
		}
		if got.Columns[1].IsNull(i) != rb.Columns[1].IsNull(i) {
			t.Fatalf("null[%d] mismatch", i)
		}
		if !got.Columns[1].IsNull(i) && got.Columns[1].Str(i) != rb.Columns[1].Str(i) {
			t.Fatalf("name[%d] mismatch", i)
		}
		if got.Columns[3].Str(i) != rb.Columns[3].Str(i) {
			t.Fatalf("color[%d] mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestIPCMultipleBatches(t *testing.T) {
	schema, _ := sampleBatch(t, 1)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const nBatches = 5
	var want []uint64
	for i := 0; i < nBatches; i++ {
		_, rb := sampleBatch(t, 10+i)
		want = append(want, Checksum(rb))
		if err := w.WriteBatch(rb); err != nil { // schema auto-written
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tab, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Batches) != nBatches {
		t.Fatalf("batches = %d", len(tab.Batches))
	}
	if !tab.Schema.Equal(schema) {
		t.Fatal("schema mismatch")
	}
	for i, rb := range tab.Batches {
		if Checksum(rb) != want[i] {
			t.Fatalf("batch %d checksum mismatch", i)
		}
	}
}

func TestIPCWriteTableReadTable(t *testing.T) {
	schema, rb1 := sampleBatch(t, 33)
	_, rb2 := sampleBatch(t, 17)
	tab := &Table{Schema: schema, Batches: []*RecordBatch{rb1, rb2}}
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 50 {
		t.Fatalf("NumRows = %d", got.NumRows())
	}
}

func TestIPCBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("NOTARROW123456789")))
	if _, err := r.Next(); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestIPCTruncated(t *testing.T) {
	schema, rb := sampleBatch(t, 50)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteSchema(schema); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(rb); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut the stream mid-batch; the reader must error, not hang or panic.
	for _, cut := range []int{9, 20, len(full) / 2, len(full) - 3} {
		r := NewReader(bytes.NewReader(full[:cut]))
		_, err := r.Next()
		if err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestIPCZeroCopyBuffers(t *testing.T) {
	// Arrays constructed over raw buffers must survive the wire.
	vals := make([]byte, 8*4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			vals[i*8+j] = byte(i + 1)
		}
	}
	validity := util.NewBitmap(4)
	validity.SetAll(4)
	a := NewFixedArray(INT64, 4, vals, validity, 0)
	schema := NewSchema(Field{"raw", INT64, true})
	rb, err := NewRecordBatch(schema, []*Array{a})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBatch(rb); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Batches[0].Columns[0].Int64(2) != a.Int64(2) {
		t.Fatal("zero-copy array corrupted on wire")
	}
}

func TestWriterCountsBytes(t *testing.T) {
	_, rb := sampleBatch(t, 64)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBatch(rb); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.BytesWritten != int64(buf.Len()) {
		t.Fatalf("BytesWritten = %d, buffer has %d", w.BytesWritten, buf.Len())
	}
}

// TestDecodeBatchAliasesInput: EncodeBatch and DecodeBatch round-trip a
// batch, the decoded buffers are slices of the input rather than copies,
// and a stream of zero or two batches is refused.
func TestDecodeBatchAliasesInput(t *testing.T) {
	schema, rb := sampleBatch(t, 50)
	data, err := EncodeBatch(rb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema.Equal(schema) || got.NumRows != 50 || got.Column("name").Str(3) != rb.Column("name").Str(3) {
		t.Fatal("decoded batch differs from the encoded one")
	}
	for _, col := range got.Columns {
		if !inside(col.Values, data) {
			t.Fatalf("%s values were copied out of the input", col.Type)
		}
	}
	two, err := ReadTable(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, &Table{Schema: schema, Batches: []*RecordBatch{two.Batches[0], two.Batches[0]}}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBatch(buf.Bytes()); err == nil {
		t.Fatal("a two-batch stream decoded as one batch")
	}
	buf.Reset()
	if err := WriteTable(&buf, &Table{Schema: schema}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBatch(buf.Bytes()); err == nil {
		t.Fatal("a stream with no batch decoded")
	}
}

// inside reports whether b's first byte lies within data.
func inside(b, data []byte) bool {
	if len(b) == 0 {
		return true
	}
	p := uintptr(unsafe.Pointer(&b[0]))
	lo := uintptr(unsafe.Pointer(&data[0]))
	return p >= lo && p < lo+uintptr(len(data))
}
