package index

import (
	"bytes"
	"hash/maphash"
	"sort"

	"mainline/internal/storage"
)

// Sharded partitions a logical index across many BTrees by hashing a fixed
// key prefix. Workloads whose keys open with a partition column (TPC-C's
// warehouse ID) get near-linear write concurrency, while range scans that
// fix the prefix stay within one shard. Cross-shard scans fall back to a
// merge.
type Sharded struct {
	shards    []*BTree
	prefixLen int
	seed      maphash.Seed
}

// NewSharded creates an index with the given shard count (rounded up to a
// power of two; values below 1 are treated as 1) hashing the first
// prefixLen key bytes. prefixLen must be at least 1 — shard selection
// hashes key[:prefixLen], so a non-positive length returns
// ErrInvalidPrefixLen instead of panicking at the first lookup.
func NewSharded(shardCount, prefixLen int) (*Sharded, error) {
	if prefixLen <= 0 {
		return nil, ErrInvalidPrefixLen
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	s := &Sharded{prefixLen: prefixLen, seed: maphash.MakeSeed()}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, NewBTree())
	}
	return s, nil
}

func (s *Sharded) shardOf(key []byte) *BTree {
	p := key
	if len(p) > s.prefixLen {
		p = p[:s.prefixLen]
	}
	return s.shards[maphash.Bytes(s.seed, p)&uint64(len(s.shards)-1)]
}

// sameShard reports whether lo and hi share a full hash prefix, i.e. the
// scan provably stays within one shard.
func (s *Sharded) sameShard(lo, hi []byte) bool {
	if hi == nil {
		return false
	}
	if len(lo) < s.prefixLen || len(hi) < s.prefixLen {
		return false
	}
	return bytes.Equal(lo[:s.prefixLen], hi[:s.prefixLen])
}

// Len sums entries across shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Insert adds (key, slot).
func (s *Sharded) Insert(key []byte, slot storage.TupleSlot) {
	s.shardOf(key).Insert(key, slot)
}

// InsertMulti adds (key, slot) without pair deduplication (see
// BTree.InsertMulti).
func (s *Sharded) InsertMulti(key []byte, slot storage.TupleSlot) {
	s.shardOf(key).InsertMulti(key, slot)
}

// InsertUnique adds (key, slot) if absent; reports success.
func (s *Sharded) InsertUnique(key []byte, slot storage.TupleSlot) bool {
	return s.shardOf(key).InsertUnique(key, slot)
}

// Get appends the slots under key to out (see BTree.Get).
func (s *Sharded) Get(key []byte, out []storage.TupleSlot) []storage.TupleSlot {
	return s.shardOf(key).Get(key, out)
}

// GetOne returns a single slot under key.
func (s *Sharded) GetOne(key []byte) (storage.TupleSlot, bool) {
	return s.shardOf(key).GetOne(key)
}

// Delete removes (key, slot) (slot 0 removes all values under key).
func (s *Sharded) Delete(key []byte, slot storage.TupleSlot) bool {
	return s.shardOf(key).Delete(key, slot)
}

// Scan visits [lo, hi) in key order. When the bounds share the hash prefix
// the scan touches a single shard; otherwise results from every shard are
// merged (correct but slower — workloads should fix the partition prefix).
func (s *Sharded) Scan(lo, hi []byte, fn func(key []byte, slot storage.TupleSlot) bool) {
	if s.sameShard(lo, hi) {
		s.shardOf(lo).Scan(lo, hi, fn)
		return
	}
	type pair struct {
		key  []byte
		slot storage.TupleSlot
	}
	var all []pair
	for _, sh := range s.shards {
		sh.Scan(lo, hi, func(k []byte, v storage.TupleSlot) bool {
			all = append(all, pair{append([]byte(nil), k...), v})
			return true
		})
	}
	sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].key, all[j].key) < 0 })
	for _, p := range all {
		if !fn(p.key, p.slot) {
			return
		}
	}
}

// ScanPrefix visits keys starting with prefix.
func (s *Sharded) ScanPrefix(prefix []byte, fn func(key []byte, slot storage.TupleSlot) bool) {
	s.Scan(prefix, PrefixEnd(prefix), fn)
}

// Index is the interface shared by BTree and Sharded; table code programs
// against it.
//
// Insert, InsertMulti and InsertUnique copy the key, so callers may pass a
// reused buffer.
type Index interface {
	Insert(key []byte, slot storage.TupleSlot)
	InsertMulti(key []byte, slot storage.TupleSlot)
	InsertUnique(key []byte, slot storage.TupleSlot) bool
	Get(key []byte, out []storage.TupleSlot) []storage.TupleSlot
	GetOne(key []byte) (storage.TupleSlot, bool)
	Delete(key []byte, slot storage.TupleSlot) bool
	Scan(lo, hi []byte, fn func(key []byte, slot storage.TupleSlot) bool)
	ScanPrefix(prefix []byte, fn func(key []byte, slot storage.TupleSlot) bool)
	Len() int
}

var (
	_ Index = (*BTree)(nil)
	_ Index = (*Sharded)(nil)
)
