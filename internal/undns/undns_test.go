package undns

import (
	"testing"

	"octant/internal/geo"
	"octant/internal/netsim"
)

func TestResolveSimulatorNames(t *testing.T) {
	r := NewResolver()
	cases := map[string]string{
		"so-0-1-0.bb1.chi.simnet.net":           "Chicago",
		"so-0-2-0.bb2.nyc.simnet.net":           "New York",
		"ge-2-3.car1.cornell-gw.alb.simnet.net": "Albany",
		"ge-2-3.car1.mit-gw.bos.simnet.net":     "Boston",
	}
	for name, wantCity := range cases {
		loc, ok := r.Resolve(name)
		if !ok {
			t.Errorf("Resolve(%q) failed", name)
			continue
		}
		if loc.City != wantCity {
			t.Errorf("Resolve(%q) = %q, want %q", name, loc.City, wantCity)
		}
	}
}

func TestResolveRealWorldShapes(t *testing.T) {
	r := NewResolver()
	cases := map[string]string{
		"sl-bb21-chi-14-0.sprintlink.net":    "Chicago",
		"ae-2.r20.nyc5.alter.net":            "New York",
		"xe-1-2-0.sea03.level3.net":          "Seattle",
		"te0-7-0-2.ccr21.atl01.cogentco.com": "Atlanta",
	}
	for name, wantCity := range cases {
		loc, ok := r.Resolve(name)
		if !ok {
			t.Errorf("Resolve(%q) failed", name)
			continue
		}
		if loc.City != wantCity {
			t.Errorf("Resolve(%q) = %q, want %q", name, loc.City, wantCity)
		}
	}
}

func TestResolveFullCityNames(t *testing.T) {
	r := NewResolver()
	loc, ok := r.Resolve("core1.chicago.backbone.example.net")
	if !ok || loc.City != "Chicago" {
		t.Errorf("full-name resolve = %v %v", loc, ok)
	}
}

func TestResolveNegative(t *testing.T) {
	r := NewResolver()
	for _, name := range []string{
		"",
		"planetlab1.cs.cornell.edu", // host, no POP token
		"core1.backbone.example.net",
		"a-b-c.example.com",
	} {
		if loc, ok := r.Resolve(name); ok {
			t.Errorf("Resolve(%q) unexpectedly = %v", name, loc)
		}
	}
}

func TestResolveDoesNotMatchDomainTokens(t *testing.T) {
	r := NewResolver()
	// "lon" appears in the registrable domain here; must not match.
	if loc, ok := r.Resolve("router1.lon-net.com"); ok {
		t.Errorf("domain token matched: %v", loc)
	}
}

func TestAddCustomCity(t *testing.T) {
	r := NewResolver()
	r.Add("ith", "Ithaca", "US", geo.Pt(42.4440, -76.5019))
	loc, ok := r.Resolve("ge-0-0-0.car2.ith.simnet.net")
	if !ok || loc.City != "Ithaca" {
		t.Errorf("custom city resolve = %v %v", loc, ok)
	}
	loc, ok = r.Resolve("core3.ithaca.upstate.example.net")
	if !ok || loc.Code != "ith" {
		t.Errorf("custom alias resolve = %v %v", loc, ok)
	}
}

// Colliding registrations must resolve the same way regardless of
// insertion order: the winner is picked by comparing the entries (city,
// then country), never by which Add happened first. Regression test for
// the map-iteration nondeterminism a caller populating from a Go map
// would otherwise inherit.
func TestAddCollisionOrderIndependent(t *testing.T) {
	a := Location{City: "Aachen", Code: "aaa", Country: "DE", Loc: geo.Pt(50.78, 6.08)}
	b := Location{City: "Zagreb", Code: "aaa", Country: "HR", Loc: geo.Pt(45.81, 15.98)}

	r1 := NewResolver()
	r1.Add(a.Code, a.City, a.Country, a.Loc)
	r1.Add(b.Code, b.City, b.Country, b.Loc)
	r2 := NewResolver()
	r2.Add(b.Code, b.City, b.Country, b.Loc)
	r2.Add(a.Code, a.City, a.Country, a.Loc)

	for _, name := range []string{
		"so-0-1-0.bb1.aaa.simnet.net", // code token
		"core3.aachen.example.net",    // name alias
		"core3.zagreb.example.net",
	} {
		l1, ok1 := r1.Resolve(name)
		l2, ok2 := r2.Resolve(name)
		if ok1 != ok2 || l1 != l2 {
			t.Errorf("Resolve(%q) order-dependent: %v/%v vs %v/%v", name, l1, ok1, l2, ok2)
		}
	}
	// The deterministic winner is the lexicographically smaller city.
	if l, ok := r1.Resolve("so-0-1-0.bb1.aaa.simnet.net"); !ok || l.City != "Aachen" {
		t.Errorf("collision winner = %v %v, want Aachen", l, ok)
	}
}

func TestAllPOPCodesResolve(t *testing.T) {
	r := NewResolver()
	for _, c := range netsim.POPCities {
		name := "so-1-1-1.bb3." + c.Code + ".simnet.net"
		loc, ok := r.Resolve(name)
		if !ok {
			t.Errorf("POP code %q did not resolve", c.Code)
			continue
		}
		if loc.Loc.DistanceKm(c.Loc()) > 1 {
			t.Errorf("POP %q resolved to wrong location", c.Code)
		}
	}
}
