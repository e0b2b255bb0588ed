package measure

import (
	"sync"
	"time"
)

// rttKey identifies one cached min-RTT: the probing source, the target,
// the per-train sample count (min-of-n is biased by n, so trains with
// different counts are not comparable), and the survey epoch (a swap
// must never serve the previous generation's measurements).
type rttKey struct {
	src, dst string
	n        int
	epoch    uint64
}

type rttEntry struct {
	min float64
	at  time.Time
}

// rttCache is the TTL'd min-RTT cache. Entries expire lazily on read;
// commit sweeps expired entries whenever occupancy crosses the high-water
// mark, which bounds memory without a background goroutine.
type rttCache struct {
	ttl time.Duration

	mu sync.RWMutex
	m  map[rttKey]rttEntry
}

// cacheHighWater is the occupancy at which a commit sweeps expired
// entries.
const cacheHighWater = 1 << 16

func newRTTCache(ttl time.Duration) *rttCache {
	return &rttCache{ttl: ttl, m: make(map[rttKey]rttEntry)}
}

func (c *rttCache) get(key rttKey) (float64, bool) {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	if !ok || time.Since(e.at) > c.ttl {
		return 0, false
	}
	return e.min, true
}

// stagedEntries is a round's pending cache writes. Rounds stage
// successful min-RTTs locally and commit the whole set only after the
// round finishes with its context intact, so a cancelled fan-out —
// however far it got — contributes nothing: the cache never holds a
// partial round.
type stagedEntries struct {
	mu      sync.Mutex
	keys    []rttKey
	entries []float64
}

func newStagedEntries(capHint int) *stagedEntries {
	return &stagedEntries{
		keys:    make([]rttKey, 0, capHint),
		entries: make([]float64, 0, capHint),
	}
}

func (st *stagedEntries) add(key rttKey, min float64) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.keys = append(st.keys, key)
	st.entries = append(st.entries, min)
	st.mu.Unlock()
}

func (c *rttCache) commit(st *stagedEntries) {
	st.mu.Lock()
	keys, entries := st.keys, st.entries
	st.keys, st.entries = nil, nil
	st.mu.Unlock()
	if len(keys) == 0 {
		return
	}
	now := time.Now()
	c.mu.Lock()
	for i, k := range keys {
		c.m[k] = rttEntry{min: entries[i], at: now}
	}
	if len(c.m) > cacheHighWater {
		for k, e := range c.m {
			if now.Sub(e.at) > c.ttl {
				delete(c.m, k)
			}
		}
	}
	c.mu.Unlock()
}

func (c *rttCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
