package txn

import (
	"encoding/binary"
	"fmt"
	"sync"

	"mainline/internal/storage"
)

// Redo body encoding. A transaction encodes each after-image when it
// writes (§3.4: the redo buffer is handed to the log manager as is); the
// log manager only frames each body with the commit timestamp and a CRC
// (wal.AppendRedo). A body is the commit-independent tail of a WAL redo
// payload:
//
//	[u32 tableID][u64 slot][u8 kind][row]
//
// row (inserts and updates; a delete logs only [u16 0]):
//
//	[u16 ncols] then per column:
//	[u16 colID][u8 flags] flags bit0=null bit1=varlen
//	fixed non-null:  [u8 size][size bytes]
//	varlen non-null: [u32 len][len bytes]
//
// DecodeRedoBody reads a body back (recovery). The transaction's redo
// buffer holds its bodies back to back, each prefixed by its u32 length;
// NextRedo walks it.

// AppendRedoBody appends the encoded body of one redo record to dst.
// after is nil for deletes.
func AppendRedoBody(dst []byte, tableID uint32, slot storage.TupleSlot, kind storage.RecordKind, after *storage.ProjectedRow) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, tableID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(slot))
	dst = append(dst, byte(kind))
	if after == nil {
		return binary.LittleEndian.AppendUint16(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(after.P.NumCols()))
	for i, col := range after.P.Cols {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(col))
		var flags byte
		varlen := after.P.IsVarlenAt(i)
		if varlen {
			flags |= 2
		}
		if after.IsNull(i) {
			dst = append(dst, flags|1)
			continue
		}
		dst = append(dst, flags)
		if varlen {
			v := after.Varlen(i)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
			dst = append(dst, v...)
		} else {
			b := after.FixedBytes(i)
			dst = append(dst, byte(len(b)))
			dst = append(dst, b...)
		}
	}
	return dst
}

// RedoColumn is one column value of a decoded after-image.
type RedoColumn struct {
	Col    storage.ColumnID
	Null   bool
	Varlen bool
	Value  []byte
}

// DecodeRedoBody decodes a body written by AppendRedoBody. Values are
// copied out of p.
func DecodeRedoBody(p []byte) (tableID uint32, slot storage.TupleSlot, kind storage.RecordKind, cols []RedoColumn, err error) {
	if len(p) < 15 {
		return 0, 0, 0, nil, fmt.Errorf("txn: short redo body")
	}
	tableID = binary.LittleEndian.Uint32(p)
	slot = storage.TupleSlot(binary.LittleEndian.Uint64(p[4:]))
	kind = storage.RecordKind(p[12])
	ncols := int(binary.LittleEndian.Uint16(p[13:]))
	p = p[15:]
	cols = make([]RedoColumn, 0, ncols)
	for i := 0; i < ncols; i++ {
		if len(p) < 3 {
			return 0, 0, 0, nil, fmt.Errorf("txn: redo body: truncated column %d", i)
		}
		c := RedoColumn{Col: storage.ColumnID(binary.LittleEndian.Uint16(p)), Null: p[2]&1 != 0, Varlen: p[2]&2 != 0}
		p = p[3:]
		if !c.Null {
			var n int
			if c.Varlen {
				if len(p) < 4 {
					return 0, 0, 0, nil, fmt.Errorf("txn: redo body: truncated varlen column %d", i)
				}
				n, p = int(binary.LittleEndian.Uint32(p)), p[4:]
			} else {
				if len(p) < 1 {
					return 0, 0, 0, nil, fmt.Errorf("txn: redo body: truncated fixed column %d", i)
				}
				n, p = int(p[0]), p[1:]
			}
			if len(p) < n {
				return 0, 0, 0, nil, fmt.Errorf("txn: redo body: truncated value %d", i)
			}
			c.Value, p = append([]byte(nil), p[:n]...), p[n:]
		}
		cols = append(cols, c)
	}
	return tableID, slot, kind, cols, nil
}

// NextRedo splits the first body off a redo buffer (Transaction.Redo),
// returning it and the rest of the buffer.
func NextRedo(buf []byte) (body, rest []byte) {
	n := 4 + int(binary.LittleEndian.Uint32(buf))
	return buf[4:n], buf[n:]
}

// maxPooledWriteBuf (bytes) and maxPooledIndexOps (entries) bound the
// capacity of a write-set buffer returned to the pool: one huge
// transaction's buffer is left to the garbage collector rather than
// pinned for good.
const (
	maxPooledWriteBuf = 64 << 10
	maxPooledIndexOps = 1 << 10
)

// writeBuffers is a writing transaction's pooled scratch: its encoded redo
// entries, the bytes of the index keys its write set names, and the
// backing array of its index-op list. Drawn at the first write, returned
// when the transaction finishes.
type writeBuffers struct {
	redo []byte
	keys []byte
	ops  []IndexOp
}

var writeBufPool = sync.Pool{New: func() any { return new(writeBuffers) }}

// buffers returns t's write buffers, drawing them from the pool on first use.
func (t *Transaction) buffers() *writeBuffers {
	if t.bufs == nil {
		t.bufs = writeBufPool.Get().(*writeBuffers)
		t.indexOps = t.bufs.ops[:0]
	}
	return t.bufs
}

// releaseBuffers returns t's write buffers to the pool. Called once t is
// finished and nothing still reads its redo entries, index keys or ops.
func (t *Transaction) releaseBuffers() {
	b := t.bufs
	if b == nil {
		return
	}
	t.bufs = nil
	ops := t.indexOps
	t.indexOps = nil
	clear(ops)
	b.redo, b.keys, b.ops = b.redo[:0], b.keys[:0], ops[:0]
	if cap(b.redo) > maxPooledWriteBuf {
		b.redo = nil
	}
	if cap(b.keys) > maxPooledWriteBuf {
		b.keys = nil
	}
	if cap(b.ops) > maxPooledIndexOps {
		b.ops = nil
	}
	writeBufPool.Put(b)
}

// OwnKey copies key into memory t owns and returns the copy, capped at
// its length: the one copy an index key needs to ride the write set. The
// copy is valid until t finishes; a key that must outlive that (a
// deferred index removal) is cloned again at commit.
func (t *Transaction) OwnKey(key []byte) []byte {
	b := t.buffers()
	if cap(b.keys)-len(b.keys) < len(key) {
		// Earlier keys keep the old array; only new keys go to the new one.
		b.keys = make([]byte, 0, max(256, 2*cap(b.keys), len(key)))
	}
	n := len(b.keys)
	b.keys = append(b.keys, key...)
	return b.keys[n:len(b.keys):len(b.keys)]
}
