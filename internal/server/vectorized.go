package server

import (
	"encoding/binary"
	"fmt"
	"io"

	"mainline/internal/arrow"
	"mainline/internal/util"
)

// Vectorized binary protocol, after Raasveldt & Mühleisen's client-protocol
// redesign [46]: data travels in column-major chunks of bounded row count,
// values in binary. Compared with pgwire it amortizes per-value overhead;
// compared with Flight it still *re-encodes* every chunk on the server and
// decodes it into fresh columns on the client — which is why the paper
// finds it plateaus well below Flight on cold data.
//
// Stream:
//
//	schema  [u16 ncols] per col: [u16 nameLen][name][u8 type][u8 nullable]
//	chunk   [u32 rows != 0] per col:
//	        [validity bitmap] then
//	        fixed: rows*width bytes
//	        varlen/dict: per value [u32 len][bytes]
//	end     [u32 0]
const vectorChunkRows = 2048

func serveVectorized(w io.Writer, schema *arrow.Schema, batches batchSource) error {
	hdr := make([]byte, 0, 128)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(schema.NumFields()))
	for _, f := range schema.Fields {
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(f.Name)))
		hdr = append(hdr, f.Name...)
		hdr = append(hdr, byte(normalizeType(f.Type)))
		if f.Nullable {
			hdr = append(hdr, 1)
		} else {
			hdr = append(hdr, 0)
		}
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	buf := make([]byte, 0, 1<<16)
	err := batches(func(rb *arrow.RecordBatch) error {
		for start := 0; start < rb.NumRows; start += vectorChunkRows {
			end := min(start+vectorChunkRows, rb.NumRows)
			buf = buf[:0]
			buf = binary.LittleEndian.AppendUint32(buf, uint32(end-start))
			for _, col := range rb.Columns {
				buf = appendChunkColumn(buf, col, start, end)
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var eos [4]byte
	_, err = w.Write(eos[:])
	return err
}

func appendChunkColumn(buf []byte, col *arrow.Array, start, end int) []byte {
	rows := end - start
	// Validity bitmap re-packed for the chunk (a real copy, as in [46]).
	bm := util.NewBitmap(rows)
	for i := 0; i < rows; i++ {
		if col.IsValid(start + i) {
			bm.Set(i)
		}
	}
	buf = append(buf, bm...)
	if w := col.Type.ByteWidth(); w > 0 {
		buf = append(buf, col.Values[start*w:end*w]...)
		return buf
	}
	// Varlen and dictionary values are length-prefixed individually.
	for i := start; i < end; i++ {
		if col.IsNull(i) {
			buf = binary.LittleEndian.AppendUint32(buf, 0)
			continue
		}
		v := col.Bytes(i)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

func fetchVectorized(r io.Reader) (*arrow.Table, error) {
	var n16 [2]byte
	if _, err := io.ReadFull(r, n16[:]); err != nil {
		return nil, err
	}
	ncols := int(binary.LittleEndian.Uint16(n16[:]))
	fields := make([]arrow.Field, ncols)
	for i := range fields {
		if _, err := io.ReadFull(r, n16[:]); err != nil {
			return nil, err
		}
		name := make([]byte, binary.LittleEndian.Uint16(n16[:]))
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, err
		}
		var tb [2]byte
		if _, err := io.ReadFull(r, tb[:]); err != nil {
			return nil, err
		}
		fields[i] = arrow.Field{Name: string(name), Type: arrow.TypeID(tb[0]), Nullable: tb[1] == 1}
	}
	schema := arrow.NewSchema(fields...)
	builders := make([]*arrow.Builder, ncols)
	for i, f := range fields {
		builders[i] = arrow.NewBuilder(f.Type)
	}

	var n32 [4]byte
	for {
		if _, err := io.ReadFull(r, n32[:]); err != nil {
			return nil, err
		}
		rows := int(binary.LittleEndian.Uint32(n32[:]))
		if rows == 0 {
			break
		}
		for i, f := range fields {
			if err := readChunkColumn(r, builders[i], f.Type, rows); err != nil {
				return nil, fmt.Errorf("vectorized: column %s: %w", f.Name, err)
			}
		}
	}
	cols := make([]*arrow.Array, ncols)
	for i, b := range builders {
		cols[i] = b.Finish()
	}
	rb, err := arrow.NewRecordBatch(schema, cols)
	if err != nil {
		return nil, err
	}
	return &arrow.Table{Schema: schema, Batches: []*arrow.RecordBatch{rb}}, nil
}

func readChunkColumn(r io.Reader, b *arrow.Builder, t arrow.TypeID, rows int) error {
	bm := make(util.Bitmap, util.BitmapBytes(rows))
	if _, err := io.ReadFull(r, bm); err != nil {
		return err
	}
	if w := t.ByteWidth(); w > 0 {
		vals := make([]byte, rows*w)
		if _, err := io.ReadFull(r, vals); err != nil {
			return err
		}
		for i := 0; i < rows; i++ {
			if !bm.Test(i) {
				b.AppendNull()
				continue
			}
			switch w {
			case 1:
				b.AppendInt8(int8(vals[i]))
			case 2:
				b.AppendInt16(int16(binary.LittleEndian.Uint16(vals[i*2:])))
			case 4:
				b.AppendInt32(int32(binary.LittleEndian.Uint32(vals[i*4:])))
			case 8:
				b.AppendInt64(int64(binary.LittleEndian.Uint64(vals[i*8:])))
			}
		}
		return nil
	}
	var n32 [4]byte
	for i := 0; i < rows; i++ {
		if _, err := io.ReadFull(r, n32[:]); err != nil {
			return err
		}
		vlen := int(binary.LittleEndian.Uint32(n32[:]))
		if !bm.Test(i) && vlen == 0 {
			b.AppendNull()
			continue
		}
		v := make([]byte, vlen)
		if _, err := io.ReadFull(r, v); err != nil {
			return err
		}
		b.AppendBytes(v)
	}
	return nil
}
