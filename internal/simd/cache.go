package simd

import (
	"container/list"
	"sync"
)

// Cache is the content-addressed result cache: spec hash → canonical
// report bytes, evicted least-recently-used under a byte budget.
// Because results are pure functions of their hash, entries never go
// stale — eviction exists only to bound memory, and a re-miss simply
// re-executes the (deterministic) run.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	index  map[string]*list.Element

	hits, misses, evictions, puts int64
}

// cacheEntry is one stored result.
type cacheEntry struct {
	key  string
	data []byte
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
	return &Cache{budget: budget, ll: list.New(), index: make(map[string]*list.Element)}
}

// Get returns the stored bytes for key and marks the entry
// most-recently-used. The returned slice is shared: callers must not
// modify it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
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
	if el, ok := c.index[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	for c.bytes+int64(len(data)) > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.index, ent.key)
		c.bytes -= int64(len(ent.data))
		c.evictions++
	}
	ent := &cacheEntry{key: key, data: data}
	c.index[key] = c.ll.PushFront(ent)
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
