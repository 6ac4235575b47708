package util

import (
	"sync"
	"sync/atomic"
)

// SegmentPool hands out fixed-size byte segments and recycles them. The
// transaction engine draws undo and redo buffer segments from a global pool
// (paper §3.1, §3.4): segments are 4096 bytes by default, never move while in
// use (version chains point into them), and are returned wholesale when the
// garbage collector determines no transaction can still observe them.
//
// The pool tracks outstanding segments so tests can assert that the GC
// eventually returns everything it took.
type SegmentPool struct {
	segmentSize int
	pool        sync.Pool
	outstanding atomic.Int64
	allocated   atomic.Int64 // total segments ever created
	reused      atomic.Int64 // gets served from the free list
}

// DefaultSegmentSize mirrors the paper's 4096-byte undo buffer segments.
const DefaultSegmentSize = 4096

// NewSegmentPool creates a pool that vends segments of segmentSize bytes.
func NewSegmentPool(segmentSize int) *SegmentPool {
	if segmentSize <= 0 {
		segmentSize = DefaultSegmentSize
	}
	p := &SegmentPool{segmentSize: segmentSize}
	p.pool.New = func() any {
		p.allocated.Add(1)
		return make([]byte, segmentSize)
	}
	return p
}

// SegmentSize returns the size in bytes of segments vended by this pool.
func (p *SegmentPool) SegmentSize() int { return p.segmentSize }

// Get returns a zero-length view of a pooled segment with full capacity.
func (p *SegmentPool) Get() []byte {
	seg := p.pool.Get().([]byte)
	if cap(seg) != p.segmentSize {
		// Foreign segment (should not happen); replace it.
		seg = make([]byte, p.segmentSize)
		p.allocated.Add(1)
	} else {
		p.reused.Add(1)
	}
	p.outstanding.Add(1)
	return seg[:0]
}

// Put returns a segment to the pool. The caller must not retain references.
func (p *SegmentPool) Put(seg []byte) {
	if cap(seg) != p.segmentSize {
		return
	}
	p.outstanding.Add(-1)
	p.pool.Put(seg[:0:p.segmentSize])
}

// Outstanding reports segments currently checked out.
func (p *SegmentPool) Outstanding() int64 { return p.outstanding.Load() }

// Stats returns lifetime counters: total allocations and pool hits.
func (p *SegmentPool) Stats() (allocated, reused int64) {
	return p.allocated.Load(), p.reused.Load()
}
