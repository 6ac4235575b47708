package server

import (
	"time"

	"mainline/internal/arrow"
	"mainline/internal/catalog"
	"mainline/internal/txn"
)

// Simulated client-side RDMA (§5 "Shipping Data with RDMA"). With real
// hardware the server's NIC writes block memory directly into a
// client-registered buffer: no protocol encoding, no socket, no extra
// copies, and the client CPU is idle during the transfer. We model exactly
// that data path in-process: the server-side goroutine copies each frozen
// block's raw column buffers into the client's pre-registered region and
// posts a completion. Hot blocks must still be materialized transactionally
// first — the same caveat the paper notes for every export path.
//
// An optional bandwidth cap models the NIC line rate so benchmark shapes
// are not distorted by memcpy being faster than any real network.

// RDMAClient owns a registered memory region the server writes into.
type RDMAClient struct {
	region []byte
	// Bandwidth caps simulated transfer speed in bytes/second (0 = memory
	// speed).
	Bandwidth float64
}

// NewRDMAClient registers a region of the given capacity.
func NewRDMAClient(capacity int) *RDMAClient {
	return &RDMAClient{region: make([]byte, capacity)}
}

// RDMAExport copies the table into the client's registered region and
// returns the client-side view plus transfer statistics. The returned
// arrays alias the client region — zero further copies, like pyarrow
// mapping a Flight/RDMA buffer. Each frozen block is copied while the
// export pins it frozen, so the transfer is a consistent snapshot.
func RDMAExport(mgr *txn.Manager, table *catalog.Table, client *RDMAClient) (*Result, error) {
	start := time.Now()
	tx := mgr.Begin()

	// A real client registers one large region with the NIC before issuing
	// reads. A transfer that outgrows it registers a larger one for the
	// rest (arrays already placed keep aliasing the old region), so a
	// client reused across exports pays that once.
	written := int64(0)
	region := client.region[:0]
	place := func(src []byte) []byte {
		if len(src) == 0 {
			return nil
		}
		if len(region)+len(src) > cap(region) {
			region = make([]byte, 0, max(2*cap(region), len(src)))
		}
		off := len(region)
		region = append(region, src...)
		written += int64(len(src))
		return region[off : off+len(src) : off+len(src)]
	}

	out := &arrow.Table{Schema: table.Schema}
	_, _, err := table.StreamBatches(tx, func(rb *arrow.RecordBatch, _ bool) error {
		cols := make([]*arrow.Array, len(rb.Columns))
		for i, c := range rb.Columns {
			nc := &arrow.Array{
				Type:      c.Type,
				Length:    c.Length,
				NullCount: c.NullCount,
				Validity:  place(c.Validity),
				Offsets:   place(c.Offsets),
				Values:    place(c.Values),
			}
			if c.Dict != nil {
				nc.Dict = &arrow.Array{
					Type:    c.Dict.Type,
					Length:  c.Dict.Length,
					Offsets: place(c.Dict.Offsets),
					Values:  place(c.Dict.Values),
				}
			}
			cols[i] = nc
		}
		nrb, err := arrow.NewRecordBatch(rb.Schema, cols)
		if err != nil {
			return err
		}
		if len(out.Batches) == 0 {
			out.Schema = rb.Schema
		}
		out.Batches = append(out.Batches, nrb)
		return nil
	})
	mgr.Commit(tx, nil)
	if err != nil {
		return nil, err
	}
	client.region = region[:cap(region)]

	elapsed := time.Since(start)
	if client.Bandwidth > 0 {
		// Model the NIC line rate: the transfer cannot complete faster
		// than bytes/bandwidth.
		wire := time.Duration(float64(written) / client.Bandwidth * float64(time.Second))
		if wire > elapsed {
			time.Sleep(wire - elapsed)
			elapsed = wire
		}
	}
	return &Result{Table: out, Bytes: written, Elapsed: elapsed}, nil
}
