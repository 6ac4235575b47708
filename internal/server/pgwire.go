package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"mainline/internal/arrow"
)

// PGWire-style row protocol. Messages follow the PostgreSQL v3 shape:
//
//	RowDescription 'T': u32 len, u16 ncols, per col: name (nul-terminated),
//	                    u8 typeID
//	DataRow        'D': u32 len, u16 ncols, per col: i32 valueLen (-1 null),
//	                    value as text
//	Complete       'C': u32 len
//
// Every value is formatted to text on the server and parsed back on the
// client — the serialization tax Figure 1 and Figure 15 put at the bottom
// of the ranking.

func servePGWire(w io.Writer, schema *arrow.Schema, batches batchSource) error {
	// RowDescription.
	desc := []byte{'T', 0, 0, 0, 0}
	desc = binary.LittleEndian.AppendUint16(desc, uint16(schema.NumFields()))
	for _, f := range schema.Fields {
		desc = append(desc, f.Name...)
		desc = append(desc, 0, byte(f.Type))
	}
	binary.LittleEndian.PutUint32(desc[1:5], uint32(len(desc)-5))
	if _, err := w.Write(desc); err != nil {
		return err
	}

	row := make([]byte, 0, 256)
	err := batches(func(rb *arrow.RecordBatch) error {
		for i := 0; i < rb.NumRows; i++ {
			row = append(row[:0], 'D', 0, 0, 0, 0)
			row = binary.LittleEndian.AppendUint16(row, uint16(len(rb.Columns)))
			for _, col := range rb.Columns {
				if col.IsNull(i) {
					row = binary.LittleEndian.AppendUint32(row, ^uint32(0))
					continue
				}
				text := formatText(col, i)
				row = binary.LittleEndian.AppendUint32(row, uint32(len(text)))
				row = append(row, text...)
			}
			binary.LittleEndian.PutUint32(row[1:5], uint32(len(row)-5))
			if _, err := w.Write(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	_, err = w.Write([]byte{'C', 0, 0, 0, 0})
	return err
}

// formatText renders one value as text, like a PostgreSQL output function.
func formatText(col *arrow.Array, i int) string {
	switch col.Type {
	case arrow.INT8:
		return strconv.FormatInt(int64(col.Int8(i)), 10)
	case arrow.INT16:
		return strconv.FormatInt(int64(col.Int16(i)), 10)
	case arrow.INT32:
		return strconv.FormatInt(int64(col.Int32(i)), 10)
	case arrow.INT64:
		return strconv.FormatInt(col.Int64(i), 10)
	case arrow.FLOAT64:
		return strconv.FormatFloat(col.Float64(i), 'g', -1, 64)
	default:
		return col.Str(i)
	}
}

// fetchPGWire parses the row stream and rebuilds columns — the client-side
// half of the serialization tax.
func fetchPGWire(r io.Reader) (*arrow.Table, error) {
	var schema *arrow.Schema
	var builders []*arrow.Builder
	var msg []byte
	for {
		var hdr [5]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("pgwire: stream ended without Complete")
			}
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(hdr[1:]))
		if cap(msg) < n {
			msg = make([]byte, n)
		}
		msg = msg[:n]
		if _, err := io.ReadFull(r, msg); err != nil {
			return nil, err
		}
		switch hdr[0] {
		case 'T':
			s, err := parseRowDescription(msg)
			if err != nil {
				return nil, err
			}
			schema = s
			builders = make([]*arrow.Builder, schema.NumFields())
			for i, f := range schema.Fields {
				builders[i] = arrow.NewBuilder(normalizeType(f.Type))
			}
		case 'D':
			if schema == nil {
				return nil, fmt.Errorf("pgwire: DataRow before RowDescription")
			}
			if err := parseDataRow(msg, schema, builders); err != nil {
				return nil, err
			}
		case 'C':
			if schema == nil {
				return nil, fmt.Errorf("pgwire: empty stream")
			}
			outSchema, cols := finishBuilders(schema, builders)
			rb, err := arrow.NewRecordBatch(outSchema, cols)
			if err != nil {
				return nil, err
			}
			return &arrow.Table{Schema: outSchema, Batches: []*arrow.RecordBatch{rb}}, nil
		default:
			return nil, fmt.Errorf("pgwire: unknown message %q", hdr[0])
		}
	}
}

// normalizeType maps dictionary columns to plain strings: a text protocol
// cannot carry dictionaries.
func normalizeType(t arrow.TypeID) arrow.TypeID {
	if t == arrow.DICT32 {
		return arrow.STRING
	}
	return t
}

func finishBuilders(schema *arrow.Schema, builders []*arrow.Builder) (*arrow.Schema, []*arrow.Array) {
	fields := make([]arrow.Field, schema.NumFields())
	cols := make([]*arrow.Array, len(builders))
	for i, f := range schema.Fields {
		fields[i] = arrow.Field{Name: f.Name, Type: normalizeType(f.Type), Nullable: f.Nullable}
		cols[i] = builders[i].Finish()
	}
	return arrow.NewSchema(fields...), cols
}

func parseRowDescription(msg []byte) (*arrow.Schema, error) {
	if len(msg) < 2 {
		return nil, fmt.Errorf("pgwire: short RowDescription")
	}
	n := int(binary.LittleEndian.Uint16(msg))
	msg = msg[2:]
	fields := make([]arrow.Field, 0, n)
	for i := 0; i < n; i++ {
		zero := -1
		for j, b := range msg {
			if b == 0 {
				zero = j
				break
			}
		}
		if zero < 0 || zero+1 >= len(msg) {
			return nil, fmt.Errorf("pgwire: truncated field %d", i)
		}
		fields = append(fields, arrow.Field{Name: string(msg[:zero]), Type: arrow.TypeID(msg[zero+1]), Nullable: true})
		msg = msg[zero+2:]
	}
	return arrow.NewSchema(fields...), nil
}

func parseDataRow(msg []byte, schema *arrow.Schema, builders []*arrow.Builder) error {
	if len(msg) < 2 {
		return fmt.Errorf("pgwire: short DataRow")
	}
	n := int(binary.LittleEndian.Uint16(msg))
	if n != len(builders) {
		return fmt.Errorf("pgwire: row has %d cols, schema %d", n, len(builders))
	}
	msg = msg[2:]
	for i := 0; i < n; i++ {
		if len(msg) < 4 {
			return fmt.Errorf("pgwire: truncated column %d", i)
		}
		vlen := binary.LittleEndian.Uint32(msg)
		msg = msg[4:]
		if vlen == ^uint32(0) {
			builders[i].AppendNull()
			continue
		}
		if len(msg) < int(vlen) {
			return fmt.Errorf("pgwire: truncated value %d", i)
		}
		text := msg[:vlen]
		msg = msg[vlen:]
		if err := appendText(builders[i], normalizeType(schema.Fields[i].Type), text); err != nil {
			return err
		}
	}
	return nil
}

func appendText(b *arrow.Builder, t arrow.TypeID, text []byte) error {
	switch t {
	case arrow.INT8:
		v, err := strconv.ParseInt(string(text), 10, 8)
		if err != nil {
			return err
		}
		b.AppendInt8(int8(v))
	case arrow.INT16:
		v, err := strconv.ParseInt(string(text), 10, 16)
		if err != nil {
			return err
		}
		b.AppendInt16(int16(v))
	case arrow.INT32:
		v, err := strconv.ParseInt(string(text), 10, 32)
		if err != nil {
			return err
		}
		b.AppendInt32(int32(v))
	case arrow.INT64:
		v, err := strconv.ParseInt(string(text), 10, 64)
		if err != nil {
			return err
		}
		b.AppendInt64(v)
	case arrow.FLOAT64:
		v, err := strconv.ParseFloat(string(text), 64)
		if err != nil {
			return err
		}
		b.AppendFloat64(v)
	default:
		b.AppendBytes(text)
	}
	return nil
}
