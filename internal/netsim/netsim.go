package netsim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"octant/internal/geo"
)

// NodeKind distinguishes simulated node roles.
type NodeKind int

// Node kinds.
const (
	KindHost NodeKind = iota // end host (landmark or target)
	KindAccess
	KindBackbone
)

func (k NodeKind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindAccess:
		return "access"
	case KindBackbone:
		return "backbone"
	}
	return "unknown"
}

// Node is a simulated host or router.
type Node struct {
	ID   int
	Kind NodeKind
	Name string // DNS name
	IP   string
	Loc  geo.Point
	City string // city name
	Code string // POP city code for routers; "" for hosts
	Zip  string // postal code (hosts)
	Inst string // institution (hosts)
	// RDNS is the node's reverse-DNS name when it differs from Name:
	// operator-assigned pool names for end hosts, possibly carrying an
	// IATA or CLLI city token (see buildHostRDNS). Empty means reverse
	// lookups return Name, as before.
	RDNS string

	// minQueueMs is the irreducible per-traversal queuing delay this node
	// adds in each direction (routers). accessMs is the per-host access
	// delay added to every RTT — the "height" of §2.2.
	minQueueMs float64
	accessMs   float64
}

// Link is an undirected edge between two nodes.
type Link struct {
	A, B    int
	DistKm  float64 // great-circle distance between endpoints
	FiberKm float64 // actual fiber path length (≥ DistKm)
	CostKm  float64 // routing metric (policy-weighted)
}

// Config controls world construction.
type Config struct {
	Seed  uint64
	Sites []SiteSpec // defaults to DefaultSites

	// HostRDNSHintFrac is the fraction of eligible end hosts (those whose
	// nearest POP is close enough that its code is a truthful hint) given
	// operator-style reverse-DNS names carrying an IATA or CLLI city
	// token. Zero (the default) leaves every host's reverse name equal to
	// its DNS name — worlds built without this knob are bit-identical to
	// worlds built before it existed.
	HostRDNSHintFrac float64
	// HostRDNSWrongFrac is the fraction of hint-bearing reverse names
	// whose city token points at a far-away POP instead of the true one —
	// the misconfigured/recycled-name case RTT cross-validation exists to
	// catch. Only consulted when HostRDNSHintFrac > 0.
	HostRDNSWrongFrac float64
}

func (c *Config) fillDefaults() {
	if c.Sites == nil {
		c.Sites = DefaultSites
	}
}

// The simulated Internet's fixed parameters. They are typed, so that an
// expression over them rounds as it would over a float64 variable: a
// seed's world does not depend on how its parameters are held.
const (
	// meanQueueMs is the mean of the exponential per-router minimum
	// queuing delay — research-network backbones run largely uncongested.
	meanQueueMs float64 = 0.15
	// maxAccessMs bounds the per-host access delay drawn uniformly from
	// [0.1, maxAccessMs].
	maxAccessMs float64 = 3
	// fiberSlackMax bounds per-link fiber path inflation drawn uniformly
	// from [1.05, fiberSlackMax].
	fiberSlackMax float64 = 1.25
	// jitterMeanMs is the mean of the exponential per-probe jitter, with a
	// heavy tail (10% of probes ×8).
	jitterMeanMs float64 = 0.5
	// neighborLinks is the number of nearest-neighbour backbone links per
	// POP.
	neighborLinks = 3
	// whoisErrorRate is the fraction of WHOIS records pointing at the
	// registrant's national HQ instead of the host city.
	whoisErrorRate float64 = 0.15
)

// World is the simulated Internet. After NewWorld returns, the topology
// and every lookup table are read-only; the lazily filled Dijkstra route
// cache is a sync.Map, so all measurement methods (Ping, Traceroute,
// Route, Whois, ReverseDNS) are safe to call from many goroutines.
//
// What changes after construction is the injected conditions — pair
// drift (SetPairDriftMs), which models the network shifting underneath a
// long-running deployment, and the faults (SetNodeDown, SetPairBlackhole,
// SetPairLossRate), which model it breaking outright. They live in one
// immutable snapshot that setters replace whole (faults.go), so they may
// be injected while measurements are in flight and each measurement sees
// one consistent set of them.
type World struct {
	Cfg     Config
	Nodes   []*Node
	Links   []Link
	adj     [][]adjEdge // adjacency: node → edges
	Hosts   []int       // node IDs of end hosts, in site order
	seed    uint64
	whois   map[string]WhoisRecord // by IP
	nameIdx map[string]int         // DNS name → node ID
	routes  sync.Map               // src node ID → *routeTable

	// cond is the injected conditions, nil while nothing is injected;
	// setters replace it under condMu.
	cond   atomic.Pointer[conditions]
	condMu sync.Mutex
	// lossSeq counts Ping calls per lossy pair ([2]int{min,max} node IDs
	// → *atomic.Uint64), so each call draws a fresh loss pattern.
	lossSeq sync.Map
	// pingCalls / tracerouteCalls account every measurement issued
	// against this world, so tests can assert how much probing a survey
	// build or a refresh actually performed.
	pingCalls       atomic.Uint64
	tracerouteCalls atomic.Uint64
}

type adjEdge struct {
	to   int
	link int // index into Links
}

// NewWorld builds a deterministic simulated Internet from cfg.
func NewWorld(cfg Config) *World {
	cfg.fillDefaults()
	w := &World{Cfg: cfg, seed: cfg.Seed, nameIdx: make(map[string]int)}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x0c7a47))

	// Backbone routers at POP cities. A quarter of them carry opaque,
	// city-free DNS names, as on the real Internet — undns coverage is
	// never complete.
	popID := make(map[string]int, len(POPCities))
	for i, city := range POPCities {
		name := backboneName(city.Code, 1)
		if rng.Float64() < 0.25 {
			name = backboneNameOpaque(i)
		}
		id := w.addNode(&Node{
			Kind:       KindBackbone,
			Name:       name,
			Loc:        city.Loc(),
			City:       city.Name,
			Code:       city.Code,
			minQueueMs: expClamped(rng, meanQueueMs, 0.02, 2.5),
		})
		popID[city.Code] = id
	}

	// Backbone mesh: nearest neighbours + explicit long-haul corridors.
	type pair struct{ a, b int }
	seen := make(map[pair]bool)
	addBackboneLink := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if seen[pair{a, b}] {
			return
		}
		seen[pair{a, b}] = true
		w.addLink(a, b, rng)
	}
	for _, city := range POPCities { // slice order: deterministic RNG use
		// A POP is among its own neighborLinks+1 nearest (at distance 0),
		// and addBackboneLink drops that self-link by ID.
		id := popID[city.Code]
		for _, n := range nearestPOPs(city.Loc(), neighborLinks+1) {
			addBackboneLink(id, popID[n.Code])
		}
	}
	for _, lh := range longHaulLinks {
		a, aok := popID[lh[0]]
		b, bok := popID[lh[1]]
		if !aok || !bok {
			panic(fmt.Sprintf("netsim: unknown long-haul city %v", lh))
		}
		addBackboneLink(a, b)
	}

	// Sites: one access router + one host each. A site does not always
	// attach to its geographically nearest POP: some campus traffic rides
	// a regional aggregation network to a bigger hub first, so the
	// upstream is drawn from the three nearest POPs (90/8/2%). This
	// heterogeneity is what §2.3's piecewise localization exists to
	// handle, and it is what keeps traceroute-based techniques honest —
	// the last recognizable router can sit a few hundred km from the
	// target.
	for i, site := range cfg.Sites {
		candidates := nearestPOPs(site.Loc(), 3)
		up := popID[candidates[0].Code]
		switch r := rng.Float64(); {
		case r > 0.98 && len(candidates) > 2:
			up = popID[candidates[2].Code]
		case r > 0.90 && len(candidates) > 1:
			up = popID[candidates[1].Code]
		}
		// Most campus gateway routers carry no city token in their DNS
		// names (customer links are named after the customer, not the
		// city); a minority embed the POP code.
		name := accessNameOpaque(site.Inst)
		if rng.Float64() < 0.4 {
			name = accessName(site.Inst, w.Nodes[up].Code)
		}
		access := w.addNode(&Node{
			Kind:       KindAccess,
			Name:       name,
			Loc:        site.Loc(),
			City:       site.City,
			Code:       w.Nodes[up].Code,
			minQueueMs: expClamped(rng, meanQueueMs*1.5, 0.05, 3),
		})
		w.addLink(access, up, rng)
		host := w.addNode(&Node{
			Kind:     KindHost,
			Name:     site.Host,
			IP:       fmt.Sprintf("10.%d.%d.2", 1+i/200, 1+i%200),
			Loc:      site.Loc(),
			City:     site.City,
			Zip:      site.Zip,
			Inst:     site.Inst,
			accessMs: 0.1 + rng.Float64()*(maxAccessMs-0.1),
		})
		w.addLink(host, access, rng)
		w.Hosts = append(w.Hosts, host)
	}
	w.buildAdjacency()
	w.ensureConnected(rng)
	w.buildWhois(rng)
	// Host reverse-DNS names draw from their own dedicated stream, after
	// all construction randomness above, so enabling them never perturbs
	// the topology, delays, or WHOIS records of an existing seed.
	if cfg.HostRDNSHintFrac > 0 {
		w.buildHostRDNS(cfg)
	}
	return w
}

func (w *World) addNode(n *Node) int {
	n.ID = len(w.Nodes)
	if n.IP == "" {
		n.IP = fmt.Sprintf("192.0.%d.%d", 2+n.ID/250, 1+n.ID%250)
	}
	w.Nodes = append(w.Nodes, n)
	w.nameIdx[n.Name] = n.ID
	return n.ID
}

func (w *World) addLink(a, b int, rng *rand.Rand) {
	na, nb := w.Nodes[a], w.Nodes[b]
	d := na.Loc.DistanceKm(nb.Loc)
	slack := 1.05 + rng.Float64()*(fiberSlackMax-1.05)
	// Policy bias: a few links are administratively expensive, diverting
	// traffic through detours (the §2.3 indirect-route effect).
	policy := 1.0
	if na.Kind == KindBackbone && nb.Kind == KindBackbone && rng.Float64() < 0.15 {
		policy = 1.5 + rng.Float64()
	}
	fiber := d*slack + 5 // +5km: local loops are never zero length
	w.Links = append(w.Links, Link{
		A: a, B: b,
		DistKm:  d,
		FiberKm: fiber,
		CostKm:  fiber * policy,
	})
}

func (w *World) buildAdjacency() {
	w.adj = make([][]adjEdge, len(w.Nodes))
	for li, l := range w.Links {
		w.adj[l.A] = append(w.adj[l.A], adjEdge{to: l.B, link: li})
		w.adj[l.B] = append(w.adj[l.B], adjEdge{to: l.A, link: li})
	}
}

// nearestPOPs returns the k POP cities nearest p, closest first (ties in
// POPCities order, which is also POP node-ID order).
func nearestPOPs(p geo.Point, k int) []City {
	type cand struct {
		city City
		d    float64
	}
	cands := make([]cand, len(POPCities))
	for i, c := range POPCities {
		cands[i] = cand{c, p.DistanceKm(c.Loc())}
	}
	slices.SortStableFunc(cands, func(a, b cand) int { return cmp.Compare(a.d, b.d) })
	out := make([]City, min(k, len(cands)))
	for i := range out {
		out[i] = cands[i].city
	}
	return out
}

// ensureConnected links any disconnected components to the main one (safety
// net; the default topology is connected by construction).
func (w *World) ensureConnected(rng *rand.Rand) {
	comp := make([]int, len(w.Nodes))
	for i := range comp {
		comp[i] = -1
	}
	nc := 0
	for i := range w.Nodes {
		if comp[i] != -1 {
			continue
		}
		// BFS.
		queue := []int{i}
		comp[i] = nc
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range w.adj[cur] {
				if comp[e.to] == -1 {
					comp[e.to] = nc
					queue = append(queue, e.to)
				}
			}
		}
		nc++
	}
	if nc <= 1 {
		return
	}
	// Connect every extra component to component 0 via its backbone node
	// nearest to any component-0 backbone node.
	for c := 1; c < nc; c++ {
		bestA, bestB := -1, -1
		bestD := math.Inf(1)
		for i, ni := range w.Nodes {
			if comp[i] != c {
				continue
			}
			for j, nj := range w.Nodes {
				if comp[j] != 0 {
					continue
				}
				if d := ni.Loc.DistanceKm(nj.Loc); d < bestD {
					bestD, bestA, bestB = d, i, j
				}
			}
		}
		if bestA >= 0 {
			w.addLink(bestA, bestB, rng)
		}
	}
	w.buildAdjacency()
}

// HostByName returns the host node with the given DNS name.
func (w *World) HostByName(name string) (*Node, bool) {
	id, ok := w.nameIdx[name]
	if !ok {
		return nil, false
	}
	return w.Nodes[id], true
}

// NodeByID returns the node with the given ID (panics if out of range).
func (w *World) NodeByID(id int) *Node { return w.Nodes[id] }

// HostNodes returns the end-host nodes in site order.
func (w *World) HostNodes() []*Node {
	out := make([]*Node, len(w.Hosts))
	for i, id := range w.Hosts {
		out[i] = w.Nodes[id]
	}
	return out
}

// AccessHeight returns the true access delay ("height") of a host — the
// ground truth the §2.2 solver estimates. It returns 0 for routers.
func (w *World) AccessHeight(id int) float64 { return w.Nodes[id].accessMs }

// expClamped draws an exponential with the given mean, clamped to [lo, hi].
func expClamped(rng *rand.Rand, mean, lo, hi float64) float64 {
	v := rng.ExpFloat64() * mean
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
