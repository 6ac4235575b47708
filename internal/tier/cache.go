package tier

import (
	"container/list"
	"sync"
	"sync/atomic"

	"mainline/internal/arrow"
)

// Cache is the byte-budgeted LRU block cache between the scan paths and
// the object store. Entries are decoded record batches keyed by object
// key (content hash — entries never go stale; a re-frozen block gets a
// new key), each charged its object's byte size, which is its footprint:
// the batch's buffers alias the fetched bytes. Concurrent misses on the same key are single-flighted: one
// caller fetches, the rest wait for its result.
//
// Budget semantics: budget < 0 is unlimited retention; budget == 0
// retains nothing (every read fetches — the degenerate configuration the
// equivalence suite sweeps); budget > 0 evicts least-recently-used
// entries until the charged bytes fit.
type Cache struct {
	budget int64

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recent
	bytes   int64
	flights map[string]*flight

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key  string
	rb   *arrow.RecordBatch
	size int64
}

type flight struct {
	done chan struct{}
	rb   *arrow.RecordBatch
	size int64
	err  error
}

// NewCache builds a cache with the given byte budget.
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:  budget,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		flights: make(map[string]*flight),
	}
}

// Hits reports cache hits (including waits on another caller's fetch).
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses reports fetches that went to the store.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Evictions reports entries dropped to fit the budget.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Bytes reports the bytes the cached entries are charged.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// GetOrFetch returns the cached batch for key, or runs fetch (once,
// however many callers race) and caches the result within budget,
// charged the size fetch reports.
func (c *Cache) GetOrFetch(key string, fetch func() (*arrow.RecordBatch, int64, error)) (*arrow.RecordBatch, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		rb := el.Value.(*cacheEntry).rb
		c.mu.Unlock()
		c.hits.Add(1)
		return rb, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err == nil {
			c.hits.Add(1)
		}
		return f.rb, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	c.misses.Add(1)
	f.rb, f.size, f.err = fetch()
	close(f.done)

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil && c.budget != 0 {
		if _, ok := c.entries[key]; !ok {
			c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, rb: f.rb, size: f.size})
			c.bytes += f.size
			c.trimLocked()
		}
	}
	c.mu.Unlock()
	return f.rb, f.err
}

// trimLocked evicts LRU entries until the footprint fits the budget.
// The newest entry is allowed to stand alone even when it exceeds the
// budget by itself — a cache that cannot hold one block would otherwise
// thrash every scan into a double fetch.
func (c *Cache) trimLocked() {
	if c.budget < 0 {
		return
	}
	for c.bytes > c.budget && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictions.Add(1)
	}
}

// Drop removes key from the cache (tests).
func (c *Cache) Drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= e.size
	}
}
