package server

import (
	"fmt"
	"io"

	"mainline/internal/arrow"
)

// Flight-style export: Arrow IPC frames straight onto the wire. For frozen
// blocks the server writes the block's own column buffers (no encoding
// pass); the client's "parse" is wrapping the received buffers in array
// headers. This is the paper's Arrow Flight path (§5): serialization
// reduced to framing.

func serveFlight(w io.Writer, batches batchSource) error {
	wr := arrow.NewWriter(w)
	err := batches(func(rb *arrow.RecordBatch) error {
		// Blocks can carry different physical schemas (dictionary-encoded
		// vs materialized); announce before each batch. WriteSchema is
		// cheap — a few dozen bytes.
		if err := wr.WriteSchema(rb.Schema); err != nil {
			return err
		}
		return wr.WriteBatch(rb)
	})
	if err != nil {
		return err
	}
	return wr.Close()
}

func fetchFlight(r io.Reader) (*arrow.Table, error) {
	rd := arrow.NewReader(r)
	var tab *arrow.Table
	for {
		rb, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if tab == nil {
			tab = &arrow.Table{Schema: rb.Schema}
		}
		tab.Batches = append(tab.Batches, rb)
	}
	if tab == nil {
		if rd.Schema() == nil {
			return nil, fmt.Errorf("flight: server sent no data (unknown table?)")
		}
		tab = &arrow.Table{Schema: rd.Schema()}
	}
	return tab, nil
}
