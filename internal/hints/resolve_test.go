package hints

import (
	"reflect"
	"strings"
	"testing"

	"octant/internal/geo"
	"octant/internal/netsim"
)

func TestResolveSimulatorNames(t *testing.T) {
	r := NewEngine()
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
	r := NewEngine()
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
	r := NewEngine()
	loc, ok := r.Resolve("core1.chicago.backbone.example.net")
	if !ok || loc.City != "Chicago" {
		t.Errorf("full-name resolve = %v %v", loc, ok)
	}
}

func TestResolveNegative(t *testing.T) {
	r := NewEngine()
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
	r := NewEngine()
	// "lon" appears in the registrable domain here; must not match.
	if loc, ok := r.Resolve("router1.lon-net.com"); ok {
		t.Errorf("domain token matched: %v", loc)
	}
}

func TestAddCustomCity(t *testing.T) {
	r := NewEngine()
	r.AddCity("ith", "", "Ithaca", geo.Pt(42.4440, -76.5019))
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
// insertion order: the winner is picked by comparing the entries (city
// first), never by which AddCity happened first. Regression test for
// the map-iteration nondeterminism a caller populating from a Go map
// would otherwise inherit.
func TestAddCollisionOrderIndependent(t *testing.T) {
	a := Hint{City: "Aachen", Code: "aaa", Loc: geo.Pt(50.78, 6.08)}
	b := Hint{City: "Zagreb", Code: "aaa", Loc: geo.Pt(45.81, 15.98)}

	r1 := NewEngine()
	r1.AddCity(a.Code, "", a.City, a.Loc)
	r1.AddCity(b.Code, "", b.City, b.Loc)
	r2 := NewEngine()
	r2.AddCity(b.Code, "", b.City, b.Loc)
	r2.AddCity(a.Code, "", a.City, a.Loc)

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
	r := NewEngine()
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

// The simulator knows where every router stands and which city token, if
// any, it wrote into the name; the engine must agree with both. This is
// the ground truth the old router-only resolver was compared against
// before it was deleted.
func TestResolveMatchesRouterGroundTruth(t *testing.T) {
	e := NewEngine()
	routers, resolved := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		w := netsim.NewWorld(netsim.Config{Seed: seed, HostRDNSHintFrac: 1})
		for _, n := range w.Nodes {
			if n.Kind == netsim.KindHost {
				if n.RDNS == "" {
					continue
				}
				// A truthful pool name carries the nearest POP's IATA
				// code or CLLI prefix, and says which by its first label.
				want, wantKind := "", KindIATA
				best := -1.0
				for _, c := range netsim.POPCities {
					if d := n.Loc.DistanceKm(c.Loc()); best < 0 || d < best {
						best, want = d, c.Code
					}
				}
				if strings.HasPrefix(n.RDNS, "dsl-") {
					wantKind = KindCLLI
				}
				hs := e.Parse(n.RDNS)
				if len(hs) == 0 || hs[0].Code != want || hs[0].Kind != wantKind {
					t.Errorf("seed %d: Parse(%q) = %v, want %s/%s first", seed, n.RDNS, hs, want, wantKind)
				}
				continue
			}
			routers++
			h, ok := e.Resolve(n.Name)
			if !ok {
				continue // opaque name: no city token to find
			}
			resolved++
			if h.Code != n.Code {
				t.Errorf("seed %d: Resolve(%q) = %s, router stands at %s", seed, n.Name, h.Code, n.Code)
			}
		}
	}
	if resolved*2 < routers {
		t.Errorf("only %d of %d router names resolved", resolved, routers)
	}
}

// The router stage resolves every hop of every traceroute, so Resolve
// must not allocate on any name shape the simulator emits, matching or
// opaque.
func TestResolveAllocFree(t *testing.T) {
	e := NewEngine()
	for _, name := range []string{
		"so-0-1-0.bb1.chi.simnet.net",           // backbone
		"p64-3-0-0.r23.simnet.net",              // opaque backbone
		"ge-2-3.car1.cornell-gw.alb.simnet.net", // access
		"ge-2-3.car1.cornell-gw.simnet.net",     // opaque access
		"pool-17.chi.edge.simnet.net",           // IATA pool name
		"dsl-17.chcgil01.access.simnet.net",     // CLLI pool name
	} {
		if allocs := testing.AllocsPerRun(100, func() { e.Resolve(name) }); allocs != 0 {
			t.Errorf("Resolve(%q) allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// FuzzResolve feeds reverse names — label soup, IDNA and Unicode labels,
// upper case, invalid UTF-8, names at DNS's 253-byte limit, a token longer
// than the walk's lower-casing buffer — through both questions the engine
// answers: Resolve must return Parse's first hint (or nothing when Parse
// finds none), must not allocate on any name of at most 253 bytes, and
// neither may depend on the name's case (the walk lower-cases token by token
// what strings.ToLower would lower-case whole). The corpus is
// testdata/fuzz/FuzzResolve; its upper-case seed allocated before the walk
// lower-cased tokens into a stack buffer.
func FuzzResolve(f *testing.F) {
	e := NewEngine()
	f.Fuzz(func(t *testing.T, name string) {
		h, ok := e.Resolve(name)
		all := e.Parse(name)
		if ok != (len(all) > 0) || ok && h != all[0] {
			t.Fatalf("Resolve(%q) = %+v, %v; Parse = %+v", name, h, ok, all)
		}
		if low := e.Parse(strings.ToLower(name)); !reflect.DeepEqual(low, all) {
			t.Fatalf("Parse(%q) = %+v, lower-cased %+v", name, all, low)
		}
		if len(name) <= 253 {
			if allocs := testing.AllocsPerRun(1, func() { e.Resolve(name) }); allocs != 0 {
				t.Fatalf("Resolve(%q) allocates %.0f/op", name, allocs)
			}
		}
	})
}
