package geo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestBezierEvalEndpoints(t *testing.T) {
	c := CubicBezier{V2(0, 0), V2(1, 2), V2(3, 2), V2(4, 0)}
	if p := c.Eval(0); p != c.P0 {
		t.Errorf("Eval(0) = %v", p)
	}
	if p := c.Eval(1); p != c.P3 {
		t.Errorf("Eval(1) = %v", p)
	}
	mid := c.Eval(0.5)
	if mid.Y <= 0 {
		t.Errorf("Eval(0.5) = %v, should bulge upward", mid)
	}
}

func TestBezierSplitContinuity(t *testing.T) {
	c := CubicBezier{V2(0, 0), V2(1, 3), V2(4, 3), V2(5, 0)}
	f := func(tRaw float64) bool {
		tt := math.Mod(math.Abs(tRaw), 1)
		if tt == 0 {
			tt = 0.5
		}
		l, r := c.Split(tt)
		// Split point matches Eval, and endpoints are preserved.
		join := c.Eval(tt)
		return l.P0 == c.P0 && r.P3 == c.P3 &&
			l.P3.Dist(join) < 1e-9 && r.P0.Dist(join) < 1e-9 &&
			l.Eval(1).Dist(r.Eval(0)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBezierSplitMatchesEval(t *testing.T) {
	c := CubicBezier{V2(0, 0), V2(2, 5), V2(6, -1), V2(8, 2)}
	l, r := c.Split(0.3)
	// l at param u corresponds to c at 0.3u; r at u corresponds to c at 0.3+0.7u.
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if d := l.Eval(u).Dist(c.Eval(0.3 * u)); d > 1e-9 {
			t.Errorf("left segment mismatch at u=%v: %v", u, d)
		}
		if d := r.Eval(u).Dist(c.Eval(0.3 + 0.7*u)); d > 1e-9 {
			t.Errorf("right segment mismatch at u=%v: %v", u, d)
		}
	}
}

func TestFlattenTolerance(t *testing.T) {
	c := CubicBezier{V2(0, 0), V2(0, 10), V2(10, 10), V2(10, 0)}
	for _, tol := range []float64{1, 0.1, 0.01} {
		pts := c.Flatten(tol, []Vec2{c.P0})
		// Every curve sample must be within tol (plus slack) of the polyline.
		for i := 0; i <= 100; i++ {
			p := c.Eval(float64(i) / 100)
			best := math.Inf(1)
			for j := 0; j+1 < len(pts); j++ {
				best = math.Min(best, segDistance(p, pts[j], pts[j+1]))
			}
			if best > tol*1.5 {
				t.Errorf("tol %v: curve point %v is %.4f from polyline", tol, p, best)
			}
		}
	}
}

func TestCircleBezierAccuracy(t *testing.T) {
	const r = 100.0
	path := CircleBezier(V2(0, 0), r)
	if len(path) != 4 {
		t.Fatalf("expected 4 segments, got %d", len(path))
	}
	for _, seg := range path {
		for i := 0; i <= 20; i++ {
			p := seg.Eval(float64(i) / 20)
			if err := math.Abs(p.Len() - r); err > r*3e-4 {
				t.Errorf("radial error %.5f at %v", err, p)
			}
		}
	}
	ring := path.Flatten(0.05)
	want := math.Pi * r * r
	if got := ring.Area(); math.Abs(got-want) > want*0.01 {
		t.Errorf("flattened circle area %v, want %v", got, want)
	}
	if !ring.IsCCW() {
		t.Error("circle path should flatten CCW")
	}
}

func TestFitBeziersRoundTrip(t *testing.T) {
	// Fit a flattened circle and check the Bezier chain reproduces it.
	orig := Disk(V2(5, 5), 50, 200).Rings[0]
	const tol = 0.5
	path := FitBeziers(orig, tol)
	if len(path) == 0 {
		t.Fatal("no segments fitted")
	}
	if len(path) >= len(orig) {
		t.Errorf("fit should compress: %d segments for %d points", len(path), len(orig))
	}
	back := path.Flatten(0.05)
	// Area preserved.
	if math.Abs(back.Area()-orig.Area()) > orig.Area()*0.02 {
		t.Errorf("area after round trip %v, want %v", back.Area(), orig.Area())
	}
	// Every original vertex close to the fitted boundary.
	for _, p := range orig {
		best := math.Inf(1)
		n := len(back)
		for j := 0; j < n; j++ {
			best = math.Min(best, segDistance(p, back[j], back[(j+1)%n]))
		}
		if best > tol*2 {
			t.Errorf("vertex %v deviates %.3f from fitted boundary", p, best)
		}
	}
}

func TestFitBeziersSquareCorners(t *testing.T) {
	sq := square(0, 0, 10)
	path := FitBeziers(sq, 0.25)
	back := path.Flatten(0.05)
	if math.Abs(back.Area()-400) > 400*0.05 {
		t.Errorf("square fit area %v, want 400", back.Area())
	}
}

func TestRegionBezierBoundaryRoundTrip(t *testing.T) {
	reg := Annulus(V2(0, 0), 20, 60, 128)
	paths := reg.BezierBoundary(0.5)
	if len(paths) != 2 {
		t.Fatalf("annulus should fit 2 boundary paths, got %d", len(paths))
	}
	back := &Region{Rings: []Ring{paths[0].Flatten(0.1), paths[1].Flatten(0.1)}} // orientations survive the fit
	if math.Abs(back.Area()-reg.Area()) > reg.Area()*0.03 {
		t.Errorf("round-trip area %v, want %v", back.Area(), reg.Area())
	}
	if back.Contains(V2(0, 0)) {
		t.Error("round-trip should preserve the hole")
	}
	if !back.Contains(V2(40, 0)) {
		t.Error("round-trip should preserve the annulus body")
	}
}

// TestBezierLength: the polyline Flatten draws a curve as is as long as
// the curve, to within its tolerance.
func TestBezierLength(t *testing.T) {
	length := func(c CubicBezier, tol float64) float64 {
		l, prev := 0.0, c.P0
		for _, p := range c.Flatten(tol, nil) {
			l, prev = l+prev.Dist(p), p
		}
		return l
	}
	// Straight-line cubic: length equals endpoint distance.
	c := CubicBezier{V2(0, 0), V2(1, 0), V2(2, 0), V2(3, 0)}
	if got := length(c, 0.01); math.Abs(got-3) > 1e-3 {
		t.Errorf("straight length = %v, want 3", got)
	}
	// Quarter circle ≈ πr/2.
	q := CircleBezier(V2(0, 0), 10)[0]
	want := math.Pi * 10 / 2
	if got := length(q, 0.001); math.Abs(got-want) > want*0.001 {
		t.Errorf("quarter-circle length = %v, want %v", got, want)
	}
}

func TestBezierBoundingBox(t *testing.T) {
	c := CubicBezier{V2(0, 0), V2(1, 5), V2(3, -2), V2(4, 1)}
	min, max := c.BoundingBox()
	for i := 0; i <= 50; i++ {
		p := c.Eval(float64(i) / 50)
		if p.X < min.X-1e-9 || p.X > max.X+1e-9 || p.Y < min.Y-1e-9 || p.Y > max.Y+1e-9 {
			t.Errorf("curve point %v escapes control bbox [%v, %v]", p, min, max)
		}
	}
}

func TestFitBeziersRandomStars(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		n := 24 + rng.IntN(60)
		ring := make(Ring, n)
		for i := range ring {
			a := 2 * math.Pi * float64(i) / float64(n)
			r := 30 + 10*math.Sin(3*a) + 4*rng.Float64()
			ring[i] = V2(r*math.Cos(a), r*math.Sin(a))
		}
		path := FitBeziers(ring, 1.0)
		if len(path) == 0 {
			return false
		}
		// The fit contract: every input vertex lies within tol of the
		// fitted boundary (area is NOT preserved on jagged inputs — the
		// fit legitimately smooths sub-tolerance zigzag).
		back := path.Flatten(0.05)
		m := len(back)
		for _, p := range ring {
			best := math.Inf(1)
			for j := 0; j < m; j++ {
				best = math.Min(best, segDistance(p, back[j], back[(j+1)%m]))
			}
			if best > 2.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// circleKappa is the control-point offset ratio for approximating a quarter
// circle with one cubic Bezier: 4/3·tan(π/8).
var circleKappa = 4.0 / 3.0 * math.Tan(math.Pi/8)

// CircleBezier returns a 4-segment closed Bezier path approximating a circle
// (max radial error ≈ 2.7e-4 · r).
func CircleBezier(center Vec2, r float64) BezierPath {
	k := circleKappa * r
	p := func(dx, dy float64) Vec2 { return Vec2{center.X + dx, center.Y + dy} }
	return BezierPath{
		{p(r, 0), p(r, k), p(k, r), p(0, r)},
		{p(0, r), p(-k, r), p(-r, k), p(-r, 0)},
		{p(-r, 0), p(-r, -k), p(-k, -r), p(0, -r)},
		{p(0, -r), p(k, -r), p(r, -k), p(r, 0)},
	}
}
