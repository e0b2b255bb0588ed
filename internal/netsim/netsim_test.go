package netsim

import (
	"math"
	"strings"
	"testing"

	"octant/internal/geo"
	"octant/internal/stats"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	return NewWorld(Config{Seed: 1})
}

func TestWorldConstruction(t *testing.T) {
	w := testWorld(t)
	if len(w.Hosts) != len(DefaultSites) {
		t.Fatalf("hosts = %d, want %d", len(w.Hosts), len(DefaultSites))
	}
	if len(DefaultSites) != 51 {
		t.Errorf("default deployment should have 51 sites like the paper, has %d", len(DefaultSites))
	}
	// One host per institution.
	insts := map[string]bool{}
	for _, h := range w.HostNodes() {
		if insts[h.Inst] {
			t.Errorf("duplicate institution %q", h.Inst)
		}
		insts[h.Inst] = true
		if h.Kind != KindHost {
			t.Errorf("host %s has kind %v", h.Name, h.Kind)
		}
		if !h.Loc.Valid() {
			t.Errorf("host %s has invalid location", h.Name)
		}
	}
	// IPs unique.
	ips := map[string]bool{}
	for _, n := range w.Nodes {
		if ips[n.IP] {
			t.Errorf("duplicate IP %s", n.IP)
		}
		ips[n.IP] = true
	}
}

func TestWorldDeterminism(t *testing.T) {
	w1 := NewWorld(Config{Seed: 42})
	w2 := NewWorld(Config{Seed: 42})
	if len(w1.Nodes) != len(w2.Nodes) || len(w1.Links) != len(w2.Links) {
		t.Fatal("same seed produced different topologies")
	}
	a, b := w1.Hosts[0], w1.Hosts[10]
	p1 := w1.Ping(a, b, 10)
	p2 := w2.Ping(a, b, 10)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed, different ping sample %d: %v vs %v", i, p1[i], p2[i])
		}
	}
	// Different seed should differ somewhere.
	w3 := NewWorld(Config{Seed: 43})
	p3 := w3.Ping(a, b, 10)
	same := true
	for i := range p1 {
		if p1[i] != p3[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical measurements")
	}
}

func TestPingPhysicality(t *testing.T) {
	w := testWorld(t)
	hosts := w.Hosts
	for i := 0; i < len(hosts); i += 7 {
		for j := 1; j < len(hosts); j += 11 {
			if i == j {
				continue
			}
			a, b := hosts[i], hosts[j]
			rtt := w.MinPing(a, b, 10)
			gc := w.Nodes[a].Loc.DistanceKm(w.Nodes[b].Loc)
			// Physical bound: RTT must be at least the speed-of-light time.
			floor := geo.DistanceToMinLatencyMs(gc)
			if rtt < floor {
				t.Errorf("%s→%s: RTT %.2f ms beats light (%.2f ms for %.0f km)",
					w.Nodes[a].Name, w.Nodes[b].Name, rtt, floor, gc)
			}
			// And not absurdly inflated (sim sanity).
			if gc > 100 && rtt > floor*6+40 {
				t.Errorf("%s→%s: RTT %.2f ms looks broken (floor %.2f)",
					w.Nodes[a].Name, w.Nodes[b].Name, rtt, floor)
			}
		}
	}
}

func TestPingSymmetryAndSelf(t *testing.T) {
	w := testWorld(t)
	a, b := w.Hosts[3], w.Hosts[30]
	// Base RTT is symmetric (same path both ways under symmetric metric).
	if d := math.Abs(w.BaseRTTMs(a, b) - w.BaseRTTMs(b, a)); d > 1e-9 {
		t.Errorf("BaseRTT asymmetry %v", d)
	}
	if got := w.Ping(a, a, 5); len(got) != 5 || got[0] != 0 {
		t.Errorf("self ping = %v", got)
	}
}

func TestMinPingConvergesToBase(t *testing.T) {
	w := testWorld(t)
	a, b := w.Hosts[0], w.Hosts[25]
	base := w.BaseRTTMs(a, b)
	min50 := w.MinPing(a, b, 50)
	if min50 < base {
		t.Fatalf("min ping %.3f below base %.3f", min50, base)
	}
	if min50-base > 1.0 {
		t.Errorf("min of 50 probes should be within 1ms of base: %.3f vs %.3f", min50, base)
	}
}

func TestLatencyDistanceCorrelation(t *testing.T) {
	// The Fig. 2 premise: latency correlates with distance, tighter than
	// the speed-of-light bound, with an empty lower-right region.
	w := testWorld(t)
	hosts := w.Hosts
	var ratios []float64
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			gc := w.Nodes[hosts[i]].Loc.DistanceKm(w.Nodes[hosts[j]].Loc)
			if gc < 200 {
				continue
			}
			rtt := w.MinPing(hosts[i], hosts[j], 10)
			maxD := geo.LatencyToMaxDistanceKm(rtt)
			ratios = append(ratios, gc/maxD) // ≤ 1 by physics
		}
	}
	med := stats.Median(ratios)
	if med < 0.45 || med > 0.98 {
		t.Errorf("median geographic efficiency %.3f: want realistic 0.45–0.98", med)
	}
	if stats.Max(ratios) > 1.0 {
		t.Errorf("some pair beats the speed of light: %.3f", stats.Max(ratios))
	}
}

func TestRouteProperties(t *testing.T) {
	w := testWorld(t)
	a, b := w.Hosts[1], w.Hosts[20]
	path := w.Route(a, b)
	if path == nil || path[0] != a || path[len(path)-1] != b {
		t.Fatalf("bad route %v", path)
	}
	// Interior nodes are routers.
	for _, id := range path[1 : len(path)-1] {
		if w.Nodes[id].Kind == KindHost {
			t.Errorf("route transits a host: %s", w.Nodes[id].Name)
		}
	}
	// Inflation ≥ 1 and not crazy.
	infl := w.PathInflation(path)
	if infl < 1 || infl > 5 {
		t.Errorf("path inflation %.2f out of range", infl)
	}
	// Reverse route mirrors under symmetric metric.
	rev := w.Route(b, a)
	if len(rev) != len(path) {
		t.Errorf("forward/reverse length mismatch %d vs %d", len(path), len(rev))
	}
}

func TestTraceroute(t *testing.T) {
	w := testWorld(t)
	a, b := w.Hosts[2], w.Hosts[40]
	hops := w.Traceroute(a, b, 3)
	if len(hops) < 3 {
		t.Fatalf("too few hops: %d", len(hops))
	}
	// Last hop is the destination host.
	if hops[len(hops)-1].NodeID != b {
		t.Errorf("last hop %v, want destination %d", hops[len(hops)-1], b)
	}
	// Cumulative RTT roughly non-decreasing (jitter may wiggle slightly,
	// allow 5ms backwardness).
	for i := 1; i < len(hops); i++ {
		if hops[i].RTTMs < hops[i-1].RTTMs-5 {
			t.Errorf("hop %d RTT %.2f way below previous %.2f", i, hops[i].RTTMs, hops[i-1].RTTMs)
		}
	}
	// Router names carry POP codes.
	foundCode := false
	for _, h := range hops[:len(hops)-1] {
		if strings.Contains(h.Name, ".simnet.net") {
			foundCode = true
		}
	}
	if !foundCode {
		t.Error("no simnet router names in traceroute")
	}
	// Self-traceroute.
	if hops := w.Traceroute(a, a, 1); len(hops) != 0 {
		t.Errorf("self traceroute = %v", hops)
	}
}

func TestReverseDNSAndHostByName(t *testing.T) {
	w := testWorld(t)
	h := w.Nodes[w.Hosts[0]]
	if got := w.ReverseDNS(h.IP); got != h.Name {
		t.Errorf("ReverseDNS(%s) = %q, want %q", h.IP, got, h.Name)
	}
	if got := w.ReverseDNS("203.0.113.9"); got != "" {
		t.Errorf("unknown IP resolved to %q", got)
	}
	n, ok := w.HostByName(h.Name)
	if !ok || n.ID != h.ID {
		t.Errorf("HostByName(%q) = %v %v", h.Name, n, ok)
	}
	if _, ok := w.HostByName("nope.example.com"); ok {
		t.Error("unknown name should not resolve")
	}
}

func TestWhoisRecords(t *testing.T) {
	w := testWorld(t)
	nErr := 0
	for _, id := range w.Hosts {
		n := w.Nodes[id]
		rec, ok := w.Whois(n.IP)
		if !ok {
			t.Fatalf("missing WHOIS for %s", n.Name)
		}
		if rec.Correct {
			if rec.City != n.City || rec.Zip != n.Zip {
				t.Errorf("correct record mismatch for %s: %+v", n.Name, rec)
			}
		} else {
			nErr++
			if rec.Loc.DistanceKm(n.Loc) < 1 {
				t.Errorf("incorrect record for %s points at the true city", n.Name)
			}
		}
	}
	// Error rate near the configured 15%.
	rate := float64(nErr) / float64(len(w.Hosts))
	if rate < 0.02 || rate > 0.40 {
		t.Errorf("WHOIS error rate %.2f implausible for cfg 0.15", rate)
	}
	if _, ok := w.Whois("198.51.100.7"); ok {
		t.Error("unknown IP should have no WHOIS record")
	}
}

func TestAccessHeightGroundTruth(t *testing.T) {
	w := testWorld(t)
	for _, id := range w.Hosts {
		h := w.AccessHeight(id)
		if h < 0.1 || h > maxAccessMs {
			t.Errorf("host %s height %.3f outside [0.1, %.1f]", w.Nodes[id].Name, h, maxAccessMs)
		}
	}
	// Routers have no access height.
	for _, n := range w.Nodes {
		if n.Kind != KindHost && w.AccessHeight(n.ID) != 0 {
			t.Errorf("router %s has nonzero height", n.Name)
		}
	}
}

func TestIndirectRoutesExist(t *testing.T) {
	// §2.3 premise: some pairs see materially inflated routes.
	w := testWorld(t)
	n := 0
	inflated := 0
	for i := 0; i < len(w.Hosts); i += 3 {
		for j := i + 1; j < len(w.Hosts); j += 5 {
			path := w.Route(w.Hosts[i], w.Hosts[j])
			gc := w.Nodes[w.Hosts[i]].Loc.DistanceKm(w.Nodes[w.Hosts[j]].Loc)
			if gc < 300 {
				continue
			}
			n++
			if w.PathInflation(path) > 1.35 {
				inflated++
			}
		}
	}
	if n == 0 {
		t.Fatal("no pairs sampled")
	}
	if inflated == 0 {
		t.Error("no indirect routes in the topology; §2.3 machinery untestable")
	}
}

func TestCityByCode(t *testing.T) {
	if c := CityByCode("chi"); c == nil || c.Name != "Chicago" {
		t.Errorf("CityByCode(chi) = %v", c)
	}
	if c := CityByCode("zzz"); c != nil {
		t.Errorf("unknown code returned %v", c)
	}
}
