// Package lru is the tree's one eviction policy: a fixed-capacity map
// that forgets its least recently used entry first, with an optional
// entry lifetime. The engine's result cache, the front door's L1, the
// solver's land-mask masters and the geo-DB lookup memo are all one of
// these.
//
// Staleness is the key's business, not the cache's. A value that is true
// only under one survey epoch carries the epoch in its key, so a reader
// at epoch E can find only E's entries, and superseded ones age out in
// LRU order like any other disuse.
package lru

import (
	"container/list"
	"sync"
	"time"
)

// Cache maps K to V, holding at most its capacity of entries. With a
// positive TTL an entry older than the TTL reads as absent and is dropped.
// A capacity ≤ 0 disables the cache: Get misses, Put stores nothing, and
// neither is counted. Safe for concurrent use.
type Cache[K comparable, V any] struct {
	cap int
	ttl time.Duration

	mu           sync.Mutex
	order        list.List // of *entry[K, V]; front = most recently used
	index        map[K]*list.Element
	hits, misses uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
	at  time.Time // when val was stored; set only with a TTL
}

// New returns an empty cache of at most capacity entries that expire ttl
// after they were stored (ttl ≤ 0: never).
func New[K comparable, V any](capacity int, ttl time.Duration) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, ttl: ttl, index: make(map[K]*list.Element)}
}

// Get returns key's value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var zero V
	if c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if ok && c.ttl > 0 && time.Since(el.Value.(*entry[K, V]).at) > c.ttl {
		c.order.Remove(el)
		delete(c.index, key)
		ok = false
	}
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key as the most recently used entry, evicting the
// least recently used one when the cache is full.
func (c *Cache[K, V]) Put(key K, val V) {
	if c.cap <= 0 {
		return
	}
	var at time.Time
	if c.ttl > 0 {
		at = time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		if c.order.Len() < c.cap {
			el = c.order.PushFront(&entry[K, V]{})
		} else {
			// Full: the least recently used element is recycled for key.
			el = c.order.Back()
			delete(c.index, el.Value.(*entry[K, V]).key)
		}
		c.index[key] = el
	}
	*el.Value.(*entry[K, V]) = entry[K, V]{key: key, val: val, at: at}
	c.order.MoveToFront(el)
}

// Len returns how many entries the cache holds, expired ones included
// until a Get drops them or eviction reaches them.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cap returns the capacity (0 when the cache is disabled).
func (c *Cache[K, V]) Cap() int { return max(c.cap, 0) }

// Counters returns Get's hits and misses since construction.
func (c *Cache[K, V]) Counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
