package netsim

import (
	"sort"
	"strings"
	"testing"
)

func TestTopologyInvariants(t *testing.T) {
	w := NewWorld(Config{Seed: 9})

	// Node counts: one backbone per POP, one access + one host per site.
	var hosts, access, backbone int
	for _, n := range w.Nodes {
		switch n.Kind {
		case KindHost:
			hosts++
		case KindAccess:
			access++
		case KindBackbone:
			backbone++
		}
	}
	if hosts != len(DefaultSites) || access != len(DefaultSites) {
		t.Errorf("hosts=%d access=%d, want %d each", hosts, access, len(DefaultSites))
	}
	if backbone != len(POPCities) {
		t.Errorf("backbone=%d, want %d", backbone, len(POPCities))
	}

	// Links: fiber ≥ geodesic, cost ≥ fiber.
	for i, l := range w.Links {
		if l.FiberKm < l.DistKm {
			t.Errorf("link %d: fiber %.1f < distance %.1f", i, l.FiberKm, l.DistKm)
		}
		if l.CostKm < l.FiberKm-1e-9 {
			t.Errorf("link %d: cost %.1f < fiber %.1f", i, l.CostKm, l.FiberKm)
		}
	}

	// Full connectivity: every host can route to every other host.
	for i := 0; i < len(w.Hosts); i += 10 {
		for j := 1; j < len(w.Hosts); j += 13 {
			if i == j {
				continue
			}
			if w.Route(w.Hosts[i], w.Hosts[j]) == nil {
				t.Fatalf("no route between hosts %d and %d", i, j)
			}
		}
	}
}

func TestSiteUpstreamIsAmongNearestPOPs(t *testing.T) {
	w := NewWorld(Config{Seed: 9})
	// For each host, the access router's POP code must belong to one of
	// the three nearest POP cities.
	for _, id := range w.Hosts {
		host := w.Nodes[id]
		// The access router is the host's only neighbour.
		if len(w.adj[id]) != 1 {
			t.Fatalf("host %s has %d links", host.Name, len(w.adj[id]))
		}
		acc := w.Nodes[w.adj[id][0].to]
		if acc.Kind != KindAccess {
			t.Fatalf("host %s neighbour is %v", host.Name, acc.Kind)
		}
		type cand struct {
			code string
			d    float64
		}
		var cands []cand
		for _, c := range POPCities {
			cands = append(cands, cand{c.Code, host.Loc.DistanceKm(c.Loc())})
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
		ok := false
		for _, c := range cands[:3] {
			if c.code == acc.Code {
				ok = true
			}
		}
		if !ok {
			t.Errorf("host %s attached to POP %q, not among 3 nearest (%v %v %v)",
				host.Name, acc.Code, cands[0].code, cands[1].code, cands[2].code)
		}
	}
}

func TestRouterNamingMix(t *testing.T) {
	w := NewWorld(Config{Seed: 9})
	var coded, opaque int
	for _, n := range w.Nodes {
		if n.Kind != KindAccess {
			continue
		}
		// Coded access names embed the POP code as a label.
		if strings.Contains(n.Name, "."+n.Code+".") {
			coded++
		} else {
			opaque++
		}
	}
	total := coded + opaque
	if total == 0 {
		t.Fatal("no access routers")
	}
	frac := float64(coded) / float64(total)
	if frac < 0.15 || frac > 0.70 {
		t.Errorf("coded access-name fraction %.2f implausible for cfg 0.4", frac)
	}
	// Some backbone routers must be opaquely named too.
	var bbOpaque int
	for _, n := range w.Nodes {
		if n.Kind == KindBackbone && !strings.Contains(n.Name, "."+n.Code+".") {
			bbOpaque++
		}
	}
	if bbOpaque == 0 {
		t.Error("expected some opaque backbone names")
	}
	if bbOpaque > len(POPCities)/2 {
		t.Errorf("too many opaque backbones: %d", bbOpaque)
	}
}

func TestRouteIsShortestUnderCostMetric(t *testing.T) {
	w := NewWorld(Config{Seed: 9})
	a, b := w.Hosts[0], w.Hosts[30]
	path := w.Route(a, b)
	if path == nil {
		t.Fatal("no route")
	}
	// The route's total cost must match the Dijkstra tree cost.
	var cost float64
	for i := 0; i+1 < len(path); i++ {
		li := w.linkBetween(path[i], path[i+1])
		if li < 0 {
			t.Fatal("broken path")
		}
		cost += w.Links[li].CostKm
	}
	tree := w.shortestTree(a)
	if diff := cost - tree.cost[b]; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("path cost %.3f != tree cost %.3f", cost, tree.cost[b])
	}
	// Unreachable node sentinel.
	if w.Route(a, a) == nil {
		t.Error("self route should be the trivial path")
	}
}

func TestPathFiberAndInflation(t *testing.T) {
	w := NewWorld(Config{Seed: 9})
	a, b := w.Hosts[3], w.Hosts[44]
	path := w.Route(a, b)
	fiber := pathFiberKm(w, path)
	gc := w.Nodes[a].Loc.DistanceKm(w.Nodes[b].Loc)
	if fiber < gc {
		t.Errorf("fiber %.0f < geodesic %.0f", fiber, gc)
	}
	if infl := pathInflation(w, path); infl < 1 {
		t.Errorf("inflation %.2f < 1", infl)
	}
	if got := pathInflation(w, nil); got != 1 {
		t.Errorf("empty path inflation = %v", got)
	}
	if got := pathFiberKm(w, []int{a}); got != 0 {
		t.Errorf("single-node path fiber = %v", got)
	}
}

// pathFiberKm returns the total fiber length along a node path.
func pathFiberKm(w *World, path []int) float64 {
	var total float64
	for i := 0; i+1 < len(path); i++ {
		li := w.linkBetween(path[i], path[i+1])
		if li < 0 {
			return 0
		}
		total += w.Links[li].FiberKm
	}
	return total
}

// pathInflation returns the ratio of routed fiber length to great-circle
// distance between the endpoints of the path (≥ 1 in practice).
func pathInflation(w *World, path []int) float64 {
	if len(path) < 2 {
		return 1
	}
	gc := w.Nodes[path[0]].Loc.DistanceKm(w.Nodes[path[len(path)-1]].Loc)
	if gc < 1 {
		return 1
	}
	return pathFiberKm(w, path) / gc
}
