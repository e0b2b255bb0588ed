package measure

import (
	"sync"

	"octant/internal/lru"
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

// cacheHighWater is the RTT cache's capacity: past it, the least recently
// used minimum goes, expired or not.
const cacheHighWater = 1 << 16

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

// commit writes the staged round into c.
func (st *stagedEntries) commit(c *lru.Cache[rttKey, float64]) {
	st.mu.Lock()
	keys, entries := st.keys, st.entries
	st.keys, st.entries = nil, nil
	st.mu.Unlock()
	for i, k := range keys {
		c.Put(k, entries[i])
	}
}
