package simd

import (
	"bytes"
	"fmt"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	c := NewCache(1 << 10)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", []byte("alpha"))
	got, ok := c.Get("a")
	if !ok || !bytes.Equal(got, []byte("alpha")) {
		t.Fatalf("Get(a) = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 5 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheLRUEviction: the least-recently-used entry goes first, and a
// Get refreshes recency.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(30) // room for three 10-byte entries
	pay := func(i int) []byte { return []byte(fmt.Sprintf("payload-%02d", i)) }
	c.Put("a", pay(0))
	c.Put("b", pay(1))
	c.Put("c", pay(2))
	c.Get("a") // refresh: b is now LRU
	c.Put("d", pay(3))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 || st.Bytes != 30 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheBudget: total bytes never exceed the budget; an entry larger
// than the whole budget is dropped rather than stored.
func TestCacheBudget(t *testing.T) {
	c := NewCache(25)
	c.Put("a", bytes.Repeat([]byte("x"), 10))
	c.Put("b", bytes.Repeat([]byte("y"), 10))
	c.Put("big", bytes.Repeat([]byte("z"), 26)) // over budget: dropped
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized entry was stored")
	}
	if st := c.Stats(); st.Bytes > 25 || st.Entries != 2 {
		t.Fatalf("budget exceeded: %+v", st)
	}
	c.Put("c", bytes.Repeat([]byte("w"), 20)) // forces both a and b out
	if st := c.Stats(); st.Bytes != 20 || st.Entries != 1 || st.Evictions != 2 {
		t.Fatalf("stats after squeeze: %+v", st)
	}
}

// TestCacheRefreshExistingKey: re-Putting a content-addressed key keeps
// one copy and refreshes recency.
func TestCacheRefreshExistingKey(t *testing.T) {
	c := NewCache(20)
	c.Put("a", bytes.Repeat([]byte("a"), 10))
	c.Put("b", bytes.Repeat([]byte("b"), 10))
	c.Put("a", bytes.Repeat([]byte("a"), 10)) // refresh: b is now LRU
	c.Put("c", bytes.Repeat([]byte("c"), 10))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted after a's refresh")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a lost")
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 20 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheDisabled: a non-positive budget stores nothing.
func TestCacheDisabled(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		c := NewCache(budget)
		c.Put("a", []byte("data"))
		if _, ok := c.Get("a"); ok {
			t.Fatalf("budget %d stored data", budget)
		}
		if n := c.Stats().Entries; n != 0 {
			t.Fatalf("budget %d: %d entries", budget, n)
		}
	}
}
