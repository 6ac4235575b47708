package arrow

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV bridge. Figure 1 of the paper compares exporting a table through a SQL
// wire protocol against dumping it to CSV and re-parsing, against handing
// over in-memory buffers. These helpers implement the CSV leg: a text
// serialization that must be formatted on write and parsed on read — the
// "heavy-weight transformation" the paper wants to eliminate.

// WriteCSV renders all batches of t as RFC-4180 CSV with a header row.
func WriteCSV(w io.Writer, t *Table) error {
	cw, err := NewCSVWriter(w, t.Schema)
	if err != nil {
		return err
	}
	for _, rb := range t.Batches {
		if err := cw.Write(rb); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// CSVWriter renders a stream of record batches as RFC-4180 CSV under one
// header row, so a producer can hand over batches it does not retain.
type CSVWriter struct {
	cw  *csv.Writer
	row []string
}

// NewCSVWriter writes schema's header row to w.
func NewCSVWriter(w io.Writer, schema *Schema) (*CSVWriter, error) {
	cw := csv.NewWriter(w)
	header := make([]string, schema.NumFields())
	for i, f := range schema.Fields {
		header[i] = f.Name
	}
	if err := cw.Write(header); err != nil {
		return nil, err
	}
	return &CSVWriter{cw: cw, row: make([]string, len(header))}, nil
}

// Write renders every row of rb.
func (c *CSVWriter) Write(rb *RecordBatch) error {
	for i := 0; i < rb.NumRows; i++ {
		for j, col := range rb.Columns {
			c.row[j] = formatValue(col, i)
		}
		if err := c.cw.Write(c.row); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any buffered rows to the underlying writer.
func (c *CSVWriter) Flush() error {
	c.cw.Flush()
	return c.cw.Error()
}

func formatValue(a *Array, i int) string {
	if a.IsNull(i) {
		return ""
	}
	switch a.Type {
	case BOOL:
		return strconv.FormatBool(a.Bool(i))
	case INT8:
		return strconv.FormatInt(int64(a.Int8(i)), 10)
	case INT16:
		return strconv.FormatInt(int64(a.Int16(i)), 10)
	case INT32:
		return strconv.FormatInt(int64(a.Int32(i)), 10)
	case INT64:
		return strconv.FormatInt(a.Int64(i), 10)
	case FLOAT64:
		return strconv.FormatFloat(a.Float64(i), 'g', -1, 64)
	case STRING, BINARY, DICT32:
		return a.Str(i)
	default:
		return ""
	}
}

// ReadCSV parses CSV produced by WriteCSV back into a Table with the given
// schema, batching batchRows rows per record batch (0 means one batch).
func ReadCSV(r io.Reader, schema *Schema, batchRows int) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("arrow/csv: reading header: %w", err)
	}
	if len(header) != schema.NumFields() {
		return nil, fmt.Errorf("arrow/csv: header has %d columns, schema %d", len(header), schema.NumFields())
	}
	t := &Table{Schema: schema}
	bb := NewBatchBuilder(schema)
	flush := func() error {
		rb, err := bb.Finish()
		if err != nil {
			return err
		}
		t.Batches = append(t.Batches, rb)
		return nil
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i, field := range rec {
			if err := appendParsed(bb.Cols[i], schema.Fields[i], field); err != nil {
				return nil, err
			}
		}
		if batchRows > 0 && bb.Len() >= batchRows {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if bb.Len() > 0 || len(t.Batches) == 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func appendParsed(b *Builder, f Field, s string) error {
	if s == "" && f.Nullable && f.Type != STRING && f.Type != BINARY && f.Type != DICT32 {
		b.AppendNull()
		return nil
	}
	switch f.Type {
	case BOOL:
		v, err := strconv.ParseBool(s)
		if err != nil {
			return fmt.Errorf("arrow/csv: field %s: %w", f.Name, err)
		}
		b.AppendBool(v)
	case INT8:
		v, err := strconv.ParseInt(s, 10, 8)
		if err != nil {
			return fmt.Errorf("arrow/csv: field %s: %w", f.Name, err)
		}
		b.AppendInt8(int8(v))
	case INT16:
		v, err := strconv.ParseInt(s, 10, 16)
		if err != nil {
			return fmt.Errorf("arrow/csv: field %s: %w", f.Name, err)
		}
		b.AppendInt16(int16(v))
	case INT32:
		v, err := strconv.ParseInt(s, 10, 32)
		if err != nil {
			return fmt.Errorf("arrow/csv: field %s: %w", f.Name, err)
		}
		b.AppendInt32(int32(v))
	case INT64:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("arrow/csv: field %s: %w", f.Name, err)
		}
		b.AppendInt64(v)
	case FLOAT64:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("arrow/csv: field %s: %w", f.Name, err)
		}
		b.AppendFloat64(v)
	case STRING, BINARY, DICT32:
		b.AppendString(s)
	default:
		return fmt.Errorf("arrow/csv: unsupported type %s", f.Type)
	}
	return nil
}
