package simd

import "sync"

// Cache is the content-addressed result cache: spec hash → canonical
// report bytes, evicted least-recently-used under a byte budget.
// Because results are pure functions of their hash, entries never go
// stale — eviction exists only to bound memory, and a re-miss simply
// re-executes the (deterministic) run.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	lru    cacheEntry // the recency ring's ends: lru.next is the most recently used
	index  map[string]*cacheEntry

	hits, misses, evictions, puts int64
}

// cacheEntry is one stored result, linked into the recency ring.
type cacheEntry struct {
	key        string
	data       []byte
	prev, next *cacheEntry
}

// CacheStats is a point-in-time snapshot of cache accounting.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Puts      int64 `json:"puts"`
}

// NewCache returns a cache holding at most budget bytes of result data
// (metadata overhead is not charged). A non-positive budget disables
// storage entirely: every Get misses, every Put is dropped.
func NewCache(budget int64) *Cache {
	c := &Cache{budget: budget, index: make(map[string]*cacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// toFront links e, out of the ring, in as the most recently used.
func (c *Cache) toFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink takes e out of the ring.
func unlink(e *cacheEntry) { e.prev.next, e.next.prev = e.next, e.prev }

// Get returns the stored bytes for key and marks the entry
// most-recently-used. The returned slice is shared: callers must not
// modify it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.index[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	unlink(e)
	c.toFront(e)
	return e.data, true
}

// Put stores data under key, evicting LRU entries until the budget
// holds. Storing an existing key refreshes its recency (the bytes are
// identical by construction — the key is a content address). Data
// larger than the whole budget is not stored.
func (c *Cache) Put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	if int64(len(data)) > c.budget {
		return
	}
	if e, ok := c.index[key]; ok {
		unlink(e)
		c.toFront(e)
		return
	}
	for c.bytes+int64(len(data)) > c.budget && c.lru.prev != &c.lru {
		old := c.lru.prev
		unlink(old)
		delete(c.index, old.key)
		c.bytes -= int64(len(old.data))
		c.evictions++
	}
	e := &cacheEntry{key: key, data: data}
	c.toFront(e)
	c.index[key] = e
	c.bytes += int64(len(data))
}

// Stats returns a snapshot of cache accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: len(c.index), Bytes: c.bytes, Budget: c.budget,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Puts: c.puts,
	}
}
