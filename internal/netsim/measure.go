package netsim

import (
	"math"
	"math/rand/v2"
	"sync"

	"octant/internal/geo"
)

// Measurement simulation. An RTT sample between two hosts decomposes as
//
//	RTT = 2·(Σ link fiber propagation + Σ router min-queue)  [path base]
//	    + height(src) + height(dst)                          [access delay]
//	    + jitter                                             [per-probe ≥ 0]
//
// matching the paper's model: an inelastic per-host component (§2.2 heights)
// on top of transmission delay over an indirect route (§2.3), plus elastic
// queuing that min-filtering over time-dispersed probes mostly removes.

// Hop is one traceroute step.
type Hop struct {
	NodeID int
	Name   string // reverse-DNS name of the router
	IP     string
	RTTMs  float64 // cumulative round-trip time to this hop
	Loc    geo.Point
}

// baseRTT returns the deterministic floor RTT between two nodes under
// conditions c: the minimum any probe can observe (including any injected
// pair drift).
func (w *World) baseRTT(c *conditions, src, dst int) float64 {
	if src == dst {
		return 0
	}
	path := w.Route(src, dst)
	if path == nil {
		return math.Inf(1)
	}
	return w.pathBaseRTT(path) + w.Nodes[src].accessMs + w.Nodes[dst].accessMs + c.pair(src, dst).driftMs
}

// SetPairDriftMs injects an extra symmetric RTT of ms between nodes a and
// b, on top of the topology-derived base. It models the network changing
// underneath a long-running deployment — a rerouted path, a congested
// peering — which is exactly what the survey lifecycle's recalibration
// exists to absorb. Setting ms = 0 removes the drift. Safe to call while
// measurements are in flight; probes observe the new floor immediately.
//
// Drift is end-to-end per pair (applied in baseRTT, hence Ping), not
// per-link: it deliberately leaves every other pair's measurements
// bit-identical, so tests can drift landmark↔landmark pairs while
// landmark→target probing stays untouched.
func (w *World) SetPairDriftMs(a, b int, ms float64) {
	w.setPair(a, b, func(pc *pairConds) { pc.driftMs = ms })
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// PingCalls returns how many Ping calls this world has served (each call
// issues n probe samples; calls are what measurement budgets count).
func (w *World) PingCalls() uint64 { return w.pingCalls.Load() }

// TracerouteCalls returns how many Traceroute calls this world has served.
func (w *World) TracerouteCalls() uint64 { return w.tracerouteCalls.Load() }

// pathBaseRTT is the round-trip propagation plus min-queuing along a path,
// excluding endpoint access heights.
func (w *World) pathBaseRTT(path []int) float64 {
	var oneWay float64
	for i := 0; i+1 < len(path); i++ {
		li := w.linkBetween(path[i], path[i+1])
		if li < 0 {
			return math.Inf(1)
		}
		oneWay += w.Links[li].FiberKm / geo.FiberSpeedKmPerMs
	}
	for _, id := range path[1 : len(path)-1] {
		oneWay += w.Nodes[id].minQueueMs
	}
	return 2 * oneWay
}

// probeSeed derives the deterministic first seed word for ordered probe
// traffic between two nodes; the second word is the caller's stream tag.
func (w *World) probeSeed(src, dst int) uint64 {
	k := w.seed ^ 0x9e3779b97f4a7c15
	k ^= uint64(src+1) * 0xbf58476d1ce4e5b9
	k ^= uint64(dst+1) * 0x94d049bb133111eb
	return k
}

// prng is a pooled, reseedable probe-noise generator. rand.Rand holds no
// stream state of its own and PCG.Seed(a, b) puts the generator in
// exactly the state NewPCG(a, b) constructs, so reseeding a pooled pair
// reproduces the per-call-constructed stream bit for bit — without the
// two heap objects per probe call (the Rand's source is consumed through
// an interface, which defeats stack allocation of a fresh pair).
type prng struct {
	pcg *rand.PCG
	rng *rand.Rand
}

var prngPool = sync.Pool{New: func() any {
	p := rand.NewPCG(0, 0)
	return &prng{pcg: p, rng: rand.New(p)}
}}

// getRNG returns a generator seeded as rand.New(rand.NewPCG(seed,
// stream)) would be; return it with prngPool.Put when done.
func getRNG(seed, stream uint64) *prng {
	p := prngPool.Get().(*prng)
	p.pcg.Seed(seed, stream)
	return p
}

// jitter draws one per-probe elastic delay: exponential with a heavy tail
// (10% of probes hit congested queues and see ~8× the mean).
func jitter(rng *rand.Rand, meanMs float64) float64 {
	j := rng.ExpFloat64() * meanMs
	if rng.Float64() < 0.10 {
		j += rng.ExpFloat64() * meanMs * 8
	}
	return j
}

// Ping returns n RTT samples (ms) between two nodes, simulating
// time-dispersed ICMP probes. Samples are deterministic for a given
// (world seed, src, dst) and independent of call order. A downed
// endpoint or blackholed pair yields no samples at all; a lossy pair
// (SetPairLossRate) may return fewer than n, down to zero.
func (w *World) Ping(src, dst, n int) []float64 {
	w.pingCalls.Add(1)
	if n <= 0 {
		n = 1
	}
	c := w.cond.Load()
	if w.pathFault(c, src, dst) != "" {
		return nil
	}
	out := make([]float64, n)
	if src == dst {
		return out
	}
	base := w.baseRTT(c, src, dst)
	p := getRNG(w.probeSeed(src, dst), 0xfeed)
	for i := range out {
		out[i] = base + jitter(p.rng, jitterMeanMs)
	}
	prngPool.Put(p)
	if rate := c.pair(src, dst).loss; rate > 0 {
		out = w.dropLost(out, src, dst, rate)
	}
	return out
}

// MinPing returns the minimum of n time-dispersed RTT samples — the
// standard latency estimator the paper's calibration consumes.
func (w *World) MinPing(src, dst, n int) float64 {
	samples := w.Ping(src, dst, n)
	m := math.Inf(1)
	for _, s := range samples {
		if s < m {
			m = s
		}
	}
	return m
}

// Traceroute returns the router-level path from src to dst with cumulative
// per-hop RTTs (each hop measured with nProbe probes, min-filtered). The
// destination host is the final hop. Router hops expose the DNS names that
// the undns rules parse.
func (w *World) Traceroute(src, dst, nProbe int) []Hop {
	w.tracerouteCalls.Add(1)
	if nProbe <= 0 {
		nProbe = 3
	}
	path := w.Route(src, dst)
	if path == nil {
		return nil
	}
	c := w.cond.Load()
	if w.pathFault(c, src, dst) != "" {
		return nil
	}
	p := getRNG(w.probeSeed(src, dst), 0x7ace)
	defer prngPool.Put(p)
	rng := p.rng
	hops := make([]Hop, 0, len(path)-1)
	for i := 1; i < len(path); i++ {
		if c.nodeDown(path[i]) {
			// Probes beyond a dead router never answer: the trace
			// truncates at the last live hop, as on the real Internet.
			break
		}
		sub := path[:i+1]
		base := w.pathBaseRTT(sub) + w.Nodes[src].accessMs
		node := w.Nodes[path[i]]
		if node.Kind == KindHost {
			base += node.accessMs
		}
		best := math.Inf(1)
		for p := 0; p < nProbe; p++ {
			if v := base + jitter(rng, jitterMeanMs); v < best {
				best = v
			}
		}
		hops = append(hops, Hop{
			NodeID: node.ID,
			Name:   node.Name,
			IP:     node.IP,
			RTTMs:  best,
			Loc:    node.Loc,
		})
	}
	return hops
}

// ReverseDNS returns the reverse-DNS name for an IP address, or "" if
// unknown. For hosts carrying a synthetic operator name (buildHostRDNS)
// this is the operator name, not the forward DNS name.
func (w *World) ReverseDNS(ip string) string {
	for _, n := range w.Nodes {
		if n.IP == ip {
			return w.ReverseName(n.ID)
		}
	}
	return ""
}
