package lru

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustGet(t *testing.T, c *Cache[string, int], key string, want int) {
	t.Helper()
	if got, ok := c.Get(key); !ok || got != want {
		t.Errorf("Get(%q) = %d, %v; want %d, true", key, got, ok, want)
	}
}

func mustMiss(t *testing.T, c *Cache[string, int], key string) {
	t.Helper()
	if got, ok := c.Get(key); ok {
		t.Errorf("Get(%q) = %d, hit; want a miss", key, got)
	}
}

// TestOrderAndCapacity: a full cache evicts the least recently used entry
// — a Get or an overwriting Put counts as use — and never holds more
// than its capacity.
func TestOrderAndCapacity(t *testing.T) {
	c := New[string, int](3, 0)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	mustGet(t, c, "a", 1) // order, most recent first: a c b
	c.Put("d", 4)         // evicts b
	mustMiss(t, c, "b")
	c.Put("c", 30) // overwrite: c d a
	c.Put("e", 5)  // evicts a
	mustMiss(t, c, "a")
	mustGet(t, c, "c", 30)
	mustGet(t, c, "d", 4)
	mustGet(t, c, "e", 5)
	if c.Len() != 3 || c.Cap() != 3 {
		t.Errorf("Len, Cap = %d, %d; want 3, 3", c.Len(), c.Cap())
	}
}

// TestTTLExpiry: an entry older than the TTL reads as absent and leaves
// the cache; a Put restarts its clock.
func TestTTLExpiry(t *testing.T) {
	const ttl = 20 * time.Millisecond
	c := New[string, int](4, ttl)
	c.Put("old", 1)
	c.Put("renewed", 2)
	time.Sleep(ttl / 2)
	c.Put("renewed", 3)
	time.Sleep(ttl/2 + 5*time.Millisecond)
	mustMiss(t, c, "old")
	mustGet(t, c, "renewed", 3)
	if c.Len() != 1 {
		t.Errorf("Len = %d after the expired entry was read, want 1", c.Len())
	}
}

// TestDisabled: a capacity ≤ 0 stores nothing and counts nothing.
func TestDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[string, int](capacity, time.Hour)
		c.Put("k", 1)
		mustMiss(t, c, "k")
		hits, misses := c.Counters()
		if c.Len() != 0 || c.Cap() != 0 || hits != 0 || misses != 0 {
			t.Errorf("capacity %d: Len %d, Cap %d, counters %d/%d; want all 0",
				capacity, c.Len(), c.Cap(), hits, misses)
		}
	}
}

// TestCounters: every Get is a hit or a miss — an expired entry a miss —
// and Put counts as neither.
func TestCounters(t *testing.T) {
	c := New[string, int](2, time.Hour)
	c.Put("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("b")
	c.Put("b", 2)
	if hits, misses := c.Counters(); hits != 2 || misses != 1 {
		t.Errorf("counters = %d hits / %d misses, want 2 / 1", hits, misses)
	}
}

// TestConcurrentHammer mixes Gets and Puts over more keys than fit from
// several goroutines. Every hit returns the value last stored for its key
// by the goroutine that owns the key, and the cache ends within its
// capacity. Run under -race it is the cache's data-race test.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers = 8
		keys    = 64
		iters   = 5000
	)
	c := New[string, int](keys/4, time.Hour)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stored := make(map[string]int)
			for i := 0; i < iters; i++ {
				// Worker w owns the keys ≡ w mod workers.
				key := fmt.Sprint((i*7+w)%keys/workers*workers + w)
				if i%3 == 0 {
					stored[key] = i
					c.Put(key, i)
					continue
				}
				if got, ok := c.Get(key); ok && got != stored[key] {
					t.Errorf("worker %d: Get(%s) = %d, last stored %d", w, key, got, stored[key])
					return
				}
				c.Len()
				c.Counters()
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > keys/4 {
		t.Errorf("Len = %d after the hammer, want ≤ %d", n, keys/4)
	}
	hits, misses := c.Counters()
	if want := uint64(workers * (iters - (iters+2)/3)); hits+misses != want {
		t.Errorf("counters = %d + %d Gets, want %d", hits, misses, want)
	}
}
