package hull

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestConvexSquarePlusInterior(t *testing.T) {
	pts := []P{{0, 0}, {10, 0}, {10, 10}, {0, 10}, {5, 5}, {3, 7}, {2, 2}}
	h := Convex(pts)
	if len(h) != 4 {
		t.Fatalf("hull size %d, want 4: %v", len(h), h)
	}
	for _, p := range []P{{5, 5}, {3, 7}} {
		for _, hp := range h {
			if hp == p {
				t.Errorf("interior point %v on hull", p)
			}
		}
	}
}

func TestConvexDegenerate(t *testing.T) {
	if h := Convex(nil); h != nil {
		t.Error("empty input should give nil")
	}
	if h := Convex([]P{{1, 1}}); len(h) != 1 {
		t.Errorf("single point hull = %v", h)
	}
	if h := Convex([]P{{1, 1}, {1, 1}, {1, 1}}); len(h) != 1 {
		t.Errorf("duplicate points hull = %v", h)
	}
	// Collinear points: hull is the two extremes.
	if h := Convex([]P{{0, 0}, {1, 1}, {2, 2}, {3, 3}}); len(h) != 2 {
		t.Errorf("collinear hull = %v", h)
	}
}

func TestUpperLowerFacets(t *testing.T) {
	// V-shaped scatter.
	pts := []P{{0, 5}, {1, 2}, {2, 0}, {3, 2}, {4, 5}, {2, 3}}
	up, lo := Facets(pts)
	// Upper chain from (0,5) to (4,5) stays at the top.
	if up[0] != (P{0, 5}) || up[len(up)-1] != (P{4, 5}) {
		t.Errorf("upper facets = %v", up)
	}
	// Lower chain passes through the minimum.
	foundMin := false
	for _, p := range lo {
		if p == (P{2, 0}) {
			foundMin = true
		}
	}
	if !foundMin {
		t.Errorf("lower facets %v missing the minimum", lo)
	}
	// Every point lies between the chains.
	for _, p := range pts {
		if Chain(up).Eval(p.X) < p.Y-1e-9 {
			t.Errorf("point %v above upper chain", p)
		}
		if Chain(lo).Eval(p.X) > p.Y+1e-9 {
			t.Errorf("point %v below lower chain", p)
		}
	}
}

// Property: upper chain dominates all points; lower chain is dominated.
func TestFacetsBoundScatter(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		n := 5 + rng.IntN(100)
		pts := make([]P, n)
		for i := range pts {
			pts[i] = P{X: rng.Float64() * 100, Y: rng.Float64() * 4000}
		}
		u, l := Facets(pts)
		up, lo := Chain(u), Chain(l)
		for _, p := range pts {
			if up.Eval(p.X) < p.Y-1e-6 || lo.Eval(p.X) > p.Y+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refChain is the upper or lower chain as it was computed before Facets:
// one sort per chain, y descending for the lower one, and the last point of
// each x kept. Facets is held to it.
func refChain(pts []P, upper bool) []P {
	n := len(pts)
	if n == 0 {
		return nil
	}
	sorted := append([]P(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		if upper {
			return sorted[i].Y < sorted[j].Y
		}
		return sorted[i].Y > sorted[j].Y
	})
	// For equal x keep the extreme y only.
	uniq := sorted[:0:0]
	for _, p := range sorted {
		if len(uniq) > 0 && uniq[len(uniq)-1].X == p.X {
			uniq[len(uniq)-1] = p // later sorts to the extreme for this x
			continue
		}
		uniq = append(uniq, p)
	}
	if len(uniq) < 3 {
		return uniq
	}
	chain := make([]P, 0, len(uniq))
	for _, p := range uniq {
		for len(chain) >= 2 {
			c := cross(chain[len(chain)-2], chain[len(chain)-1], p)
			if (upper && c >= 0) || (!upper && c <= 0) {
				chain = chain[:len(chain)-1]
				continue
			}
			break
		}
		chain = append(chain, p)
	}
	return chain
}

// TestFacetsMatchTwoSorts: one sort gives both chains the two sorts gave,
// on scatters with repeated x values, duplicate points and collinear runs,
// and leaves its input as it was.
func TestFacetsMatchTwoSorts(t *testing.T) {
	for seed := uint64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewPCG(seed, 41))
		n := rng.IntN(40)
		pts := make([]P, n)
		for i := range pts {
			// Few distinct x and y values: repeated x, duplicates and
			// collinear points are common.
			pts[i] = P{X: float64(1 + rng.IntN(1+n/3)), Y: float64(1+rng.IntN(8)) * 0.5}
			if rng.IntN(3) == 0 {
				pts[i].Y = rng.Float64() * 100
			}
			if i > 0 && rng.IntN(5) == 0 {
				pts[i] = pts[rng.IntN(i)]
			}
		}
		in := append([]P(nil), pts...)
		up, lo := Facets(pts)
		if !slices.Equal(pts, in) {
			t.Fatalf("seed %d: Facets reordered its input", seed)
		}
		if wantUp, wantLo := refChain(pts, true), refChain(pts, false); !reflect.DeepEqual(up, wantUp) || !reflect.DeepEqual(lo, wantLo) {
			t.Fatalf("seed %d, %v:\nupper %v, two sorts %v\nlower %v, two sorts %v", seed, pts, up, wantUp, lo, wantLo)
		}
	}
}

// Property: hull contains all input points (winding test via sign of cross
// products along CCW hull).
func TestHullContainsAllPoints(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		n := 10 + rng.IntN(80)
		pts := make([]P, n)
		for i := range pts {
			pts[i] = P{X: rng.Float64() * 50, Y: rng.Float64() * 50}
		}
		h := Convex(pts)
		if len(h) < 3 {
			return true
		}
		for _, p := range pts {
			for i := range h {
				a, b := h[i], h[(i+1)%len(h)]
				if cross(a, b, p) < -1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChainEval(t *testing.T) {
	c := Chain{{0, 0}, {10, 10}, {20, 0}}
	cases := map[float64]float64{0: 0, 5: 5, 10: 10, 15: 5, 20: 0, 25: -5, -5: -5}
	for x, want := range cases {
		if got := c.Eval(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("Eval(%v) = %v, want %v", x, got, want)
		}
	}
	if !math.IsNaN(Chain{}.Eval(1)) {
		t.Error("empty chain should eval NaN")
	}
	if got := (Chain{{5, 7}}).Eval(99); got != 7 {
		t.Errorf("single-point chain = %v, want 7", got)
	}
}

func TestChainTruncateRight(t *testing.T) {
	c := Chain{{0, 0}, {10, 10}, {20, 0}, {30, 5}}
	tr := c.TruncateRight(15)
	if len(tr) != 2 || tr[1] != (P{10, 10}) {
		t.Errorf("TruncateRight = %v", tr)
	}
	if got := c.TruncateRight(-1); len(got) != 1 || got[0] != c[0] {
		t.Errorf("TruncateRight below range = %v", got)
	}
	if got := (Chain{}).TruncateRight(5); got != nil {
		t.Errorf("empty chain truncate = %v", got)
	}
}
