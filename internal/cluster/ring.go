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
	"slices"
	"sort"
	"strconv"
	"sync"
)

const (
	defaultVNodes     = 128
	defaultLoadFactor = 1.25
)

// Ring is a consistent-hash ring with virtual nodes and bounded-load
// assignment. Hashes are FNV-64a of plain strings, so two processes
// building rings from the same member names agree on every owner —
// front doors can be replicated without coordination. Membership is
// fixed at construction, so placement reads take no lock; the mutex
// guards only the load books.
type Ring struct {
	loadFactor float64
	nodes      []string    // sorted, distinct
	points     []ringPoint // sorted by hash

	mu sync.Mutex
	// load tracks keys currently booked via Reserve, for the bounded-load
	// placement rule.
	load  map[string]int
	total int
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the named members. Each projects vnodes
// virtual nodes onto the ring (0 = default 128); loadFactor is the
// bounded-load ceiling (0 = default 1.25, negative = unbounded). See
// RouterConfig for both.
func NewRing(names []string, vnodes int, loadFactor float64) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	if loadFactor == 0 {
		loadFactor = defaultLoadFactor
	}
	nodes := slices.Clone(names)
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	points := make([]ringPoint, 0, len(nodes)*vnodes)
	for _, name := range nodes {
		for i := 0; i < vnodes; i++ {
			points = append(points, ringPoint{hash: hash64(name + "#" + strconv.Itoa(i)), node: name})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].hash < points[j].hash })
	return &Ring{loadFactor: loadFactor, nodes: nodes, points: points, load: make(map[string]int)}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string { return slices.Clone(r.nodes) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the key's owner: the member of the first virtual node at
// or clockwise of the key's hash. It ignores load and health; the
// router's placement rule starts from it.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.search(hash64(key))].node, true
}

// search returns the index of the first point at or clockwise of h.
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
	if r.loadFactor <= 0 {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	limit := int(r.loadFactor * float64(r.total+1) / float64(len(r.nodes)))
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
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.load))
	for n, l := range r.load {
		out[n] = l
	}
	return out
}
