package netsim

import (
	"math/rand/v2"
	"sort"

	"octant/internal/geo"
)

// Host reverse-DNS synthesis. Real access networks assign end hosts
// operator pool names ("pool-17.chi.edge.example.net",
// "dsl-42.chcgil01.access.example.net") whose city tokens — airport codes
// or CLLI place prefixes — are the hostname hints HLOC-style localization
// mines. The simulator reproduces both shapes, plus the failure mode that
// makes RTT cross-validation necessary: a configurable fraction of names
// carry the code of a far-away city (recycled names, misconfigured
// reverse zones).

// hostRDNSMaxHintKm bounds which hosts can carry a truthful hint: only
// hosts whose nearest POP is within this range get names, because a
// "correct" code for a POP hundreds of km away would itself be a wrong
// hint. Pure geometry — no randomness — so the eligible set is a fixed
// property of the site list.
const hostRDNSMaxHintKm = 75

// hostRDNSWrongMinKm is how far a wrong-hint city must be from the host's
// true position — far enough that the speed-of-light bound from any
// nearby landmark exposes it.
const hostRDNSWrongMinKm = 1500

// buildHostRDNS assigns reverse-DNS names to eligible hosts. It draws
// from a stream disjoint from every other construction draw (NewWorld
// calls it last, and only when HostRDNSHintFrac > 0), so the same seed
// yields the same topology with and without host rDNS.
func (w *World) buildHostRDNS(cfg Config) {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x2d5a1f))
	for _, id := range w.Hosts {
		n := w.Nodes[id]
		code, nearKm := nearestPOPCity(n.Loc)
		if nearKm > hostRDNSMaxHintKm {
			continue
		}
		if rng.Float64() >= cfg.HostRDNSHintFrac {
			continue
		}
		if rng.Float64() < cfg.HostRDNSWrongFrac {
			far := farPOPCodes(n.Loc)
			if len(far) == 0 {
				continue
			}
			code = far[rng.IntN(len(far))]
		}
		if rng.Float64() < 0.5 {
			n.RDNS = hostRDNSIATA(id, code)
		} else {
			n.RDNS = hostRDNSCLLI(id, CLLIByCode[code])
		}
	}
}

// nearestPOPCity returns the code and distance of the POP city nearest to
// p, deterministically (slice order breaks ties).
func nearestPOPCity(p geo.Point) (code string, km float64) {
	c := nearestPOPs(p, 1)[0]
	return c.Code, p.DistanceKm(c.Loc())
}

// farPOPCodes lists POP codes at least hostRDNSWrongMinKm from p, sorted
// for deterministic indexing.
func farPOPCodes(p geo.Point) []string {
	var out []string
	for i := range POPCities {
		if p.DistanceKm(POPCities[i].Loc()) >= hostRDNSWrongMinKm {
			out = append(out, POPCities[i].Code)
		}
	}
	sort.Strings(out)
	return out
}

// ReverseName returns the node's reverse-DNS name: the synthetic
// operator name when one was assigned, else the node's DNS name.
func (w *World) ReverseName(id int) string {
	if n := w.Nodes[id]; n.RDNS != "" {
		return n.RDNS
	}
	return w.Nodes[id].Name
}
