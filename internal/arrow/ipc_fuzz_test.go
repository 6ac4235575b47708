package arrow

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// everyTypeStream encodes one batch holding a column of every type, with
// NULLs in each nullable one and a dictionary column.
func everyTypeStream(tb testing.TB) []byte {
	tb.Helper()
	types := []TypeID{BOOL, INT8, INT16, INT32, INT64, FLOAT64, STRING, BINARY, DICT32}
	fields := make([]Field, len(types))
	cols := make([]*Array, len(types))
	for c, typ := range types {
		fields[c] = Field{Name: typ.String(), Type: typ, Nullable: true}
		b := NewBuilder(typ)
		for i := 0; i < 20; i++ {
			if i%3 == 1 {
				b.AppendNull()
				continue
			}
			switch typ {
			case BOOL:
				b.AppendBool(i%2 == 0)
			case INT8:
				b.AppendInt8(int8(i))
			case INT16:
				b.AppendInt16(int16(-i))
			case INT32:
				b.AppendInt32(int32(i * 1000))
			case INT64:
				b.AppendInt64(int64(i) << 40)
			case FLOAT64:
				b.AppendFloat64(float64(i) / 3)
			default:
				b.AppendString([]string{"red", "green", "blue"}[i%3])
			}
		}
		cols[c] = b.Finish()
	}
	rb, err := NewRecordBatch(NewSchema(fields...), cols)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, &Table{Schema: rb.Schema, Batches: []*RecordBatch{rb, rb}}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// hugeBufferStream is a stream whose batch header declares a 1<<63-byte
// value buffer for its one INT64 column.
func hugeBufferStream() []byte {
	b := append([]byte{}, streamMagic[:]...)
	b = append(b, msgSchema)
	b = binary.LittleEndian.AppendUint32(b, 10)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint16(b, 2)
	b = append(b, 'i', 'd', byte(INT64), 0, 0, 0, 0, 0, 0, 0)
	b = append(b, msgBatch)
	b = binary.LittleEndian.AppendUint32(b, colHeaderLen+8)
	b = binary.LittleEndian.AppendUint32(b, 1) // rows
	b = binary.LittleEndian.AppendUint32(b, 1) // columns
	b = append(b, byte(INT64), 0, 0, 0, 0, 0, 0, 0, 0, 0)
	for _, n := range []uint64{0, 0, 1 << 63, 0, 0, 0} {
		b = binary.LittleEndian.AppendUint64(b, n)
	}
	return append(b, 0, 0, 0, 0, 0, 0)
}

func TestIPCHugeBufferLengthRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(hugeBufferStream())).Next(); err == nil {
		t.Fatal("a 1<<63-byte buffer length was accepted")
	}
}

// sameArray reports whether two arrays carry the same type, shape and
// buffer bytes.
func sameArray(a, b *Array) bool {
	if (a.Dict == nil) != (b.Dict == nil) || (a.Dict != nil && !sameArray(a.Dict, b.Dict)) {
		return false
	}
	return a.Type == b.Type && a.Length == b.Length && a.NullCount == b.NullCount &&
		bytes.Equal(a.Validity, b.Validity) && bytes.Equal(a.Offsets, b.Offsets) && bytes.Equal(a.Values, b.Values)
}

// FuzzIPCReader feeds arbitrary bytes to the IPC reader, the decoder
// DoPut runs on client input: it must return batches or an error, never
// panic or allocate from an unchecked length, and every value of every
// batch it returns must be readable through the Array accessors. The
// in-memory entry point (DecodeBatch, which the cold tier, restore and
// AsOf run on stored objects) must agree with the streaming reader on
// every input: both fail, or both return the same batch. The seed corpus
// under testdata/ adds an evicted block's object (dictionary + NULLs).
func FuzzIPCReader(f *testing.F) {
	valid := everyTypeStream(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(hugeBufferStream())
	f.Fuzz(func(t *testing.T, data []byte) {
		streamed, streamErr := oneBatch(NewReader(bytes.NewReader(data)))
		inMemory, memErr := DecodeBatch(data)
		if (streamErr == nil) != (memErr == nil) {
			t.Fatalf("streaming reader err=%v, DecodeBatch err=%v", streamErr, memErr)
		}
		if streamErr == nil {
			if !streamed.Schema.Equal(inMemory.Schema) || streamed.NumRows != inMemory.NumRows || len(streamed.Columns) != len(inMemory.Columns) {
				t.Fatalf("streaming reader and DecodeBatch disagree on the batch shape")
			}
			for c := range streamed.Columns {
				if !sameArray(streamed.Columns[c], inMemory.Columns[c]) {
					t.Fatalf("streaming reader and DecodeBatch disagree on column %d", c)
				}
			}
			readAll(inMemory)
		}
		rd := NewReader(bytes.NewReader(data))
		for {
			rb, err := rd.Next()
			if err != nil {
				return
			}
			readAll(rb)
		}
	})
}

// readAll reads every value of every column through the Array accessors.
func readAll(rb *RecordBatch) {
	for _, col := range rb.Columns {
		for i := 0; i < rb.NumRows; i++ {
			if col.IsNull(i) {
				continue
			}
			switch col.Type {
			case BOOL:
				col.Bool(i)
			case INT8:
				col.Int8(i)
			case INT16:
				col.Int16(i)
			case INT32:
				col.Int32(i)
			case INT64:
				col.Int64(i)
			case FLOAT64:
				col.Float64(i)
			default:
				col.Bytes(i)
				col.ValueLen(i)
			}
		}
	}
}
