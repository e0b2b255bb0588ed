// Package cluster is Octant's sharded serving tier: a consistent-hash
// fleet router that assigns every (target, options-fingerprint) key a
// stable owner node, a cluster-wide result cache layered over the
// per-node LRUs, and a rollout coordinator that pushes survey epochs
// through a fleet as a rolling wave. One octant-serve process scales to
// one machine's cores; this package is what lets a fleet of them behave
// like one cache-coherent, epoch-coherent service.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// RingConfig tunes a Ring. The zero value is usable.
type RingConfig struct {
	// VNodes is how many virtual nodes each member projects onto the ring
	// (0 = default 128). More vnodes smooth the key distribution and
	// shrink per-join movement variance at the cost of a larger table.
	VNodes int
	// LoadFactor is the bounded-load ceiling c: no node is assigned more
	// than ⌈c · load/n⌉ concurrently routed keys (0 = default 1.25,
	// negative = unbounded). Bounding keeps one hot shard from pinning a
	// node while the rest of the fleet idles.
	LoadFactor float64
}

const (
	defaultVNodes     = 128
	defaultLoadFactor = 1.25
)

// Ring is a consistent-hash ring with virtual nodes and bounded-load
// assignment. Hashes are FNV-64a of plain strings, so two processes
// building rings from the same member names agree on every owner —
// front doors can be replicated without coordination.
type Ring struct {
	mu     sync.RWMutex
	cfg    RingConfig
	points []ringPoint // sorted by hash
	nodes  map[string]bool
	// load tracks keys currently booked via Reserve, for the bounded-load
	// placement rule.
	load  map[string]int
	total int
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds an empty ring.
func NewRing(cfg RingConfig) *Ring {
	if cfg.VNodes <= 0 {
		cfg.VNodes = defaultVNodes
	}
	if cfg.LoadFactor == 0 {
		cfg.LoadFactor = defaultLoadFactor
	}
	return &Ring{cfg: cfg, nodes: make(map[string]bool), load: make(map[string]int)}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[name] {
		return
	}
	r.nodes[name] = true
	for i := 0; i < r.cfg.VNodes; i++ {
		r.points = append(r.points, ringPoint{hash: hash64(name + "#" + strconv.Itoa(i)), node: name})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member; keys it owned redistribute to their next
// points clockwise, and no key owned by a surviving member moves.
func (r *Ring) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[name] {
		return
	}
	delete(r.nodes, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Owner returns the key's owner: the member of the first virtual node at
// or clockwise of the key's hash. It ignores load and health; the
// router's placement rule starts from it.
func (r *Ring) Owner(key string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.search(hash64(key))].node, true
}

// search returns the index of the first point at or clockwise of h.
// Callers hold at least the read lock.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Preference returns up to n distinct members in the key's clockwise
// order: the owner first, then each successive failover choice. Every
// front door computes the same list for the same key, so retries across
// replicas converge on the same fallback nodes (and their caches).
func (r *Ring) Preference(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(hash64(key)); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// HasRoom reports whether one more routed key keeps the member under the
// bounded-load ceiling: no member should hold more than
// LoadFactor · (total+1)/n, and never less than 1 so an idle fleet can
// take its first key. Always true with a non-positive LoadFactor, which
// degenerates placement to plain consistent hashing.
func (r *Ring) HasRoom(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.cfg.LoadFactor <= 0 {
		return true
	}
	limit := int(r.cfg.LoadFactor * float64(r.total+1) / float64(len(r.nodes)))
	return r.load[node] < max(limit, 1)
}

// Reserve books n routed keys against the member and returns the release
// to call, once, when the routed work completes. It never refuses: the
// router decides placement (reading HasRoom) and the ring only keeps the
// books, so every critical section here is a few map operations — the
// ring never calls out while holding its lock.
func (r *Ring) Reserve(node string, n int) (release func()) {
	r.mu.Lock()
	r.load[node] += n
	r.total += n
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.load[node] -= n
		r.total -= n
		r.mu.Unlock()
	}
}

// Loads returns a snapshot of reserved load per member.
func (r *Ring) Loads() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int, len(r.load))
	for n, l := range r.load {
		out[n] = l
	}
	return out
}
