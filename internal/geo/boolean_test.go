package geo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// lensArea is the exact area of the intersection of two circles of radii r1
// and r2 whose centres are d apart.
func lensArea(r1, r2, d float64) float64 {
	if d >= r1+r2 {
		return 0
	}
	if rmin := math.Min(r1, r2); d <= math.Abs(r1-r2) {
		return math.Pi * rmin * rmin
	}
	return r1*r1*math.Acos((d*d+r1*r1-r2*r2)/(2*d*r1)) + r2*r2*math.Acos((d*d+r2*r2-r1*r1)/(2*d*r2)) -
		math.Sqrt((-d+r1+r2)*(d+r1-r2)*(d-r1+r2)*(d+r1+r2))/2
}

// nearArea fails unless got's area is within perimeter × cellKm of want: the
// most a boundary of that length can gain or lose when it is traced on a
// lattice of that cell size.
func nearArea(t *testing.T, what string, got *Region, want, perimeter, cellKm float64) {
	t.Helper()
	if a := got.Area(); math.Abs(a-want) > perimeter*cellKm {
		t.Errorf("%s: area %.3f, want %.3f ± %.3f", what, a, want, perimeter*cellKm)
	}
}

func TestIntersectDisksExactArea(t *testing.T) {
	a := Disk(V2(0, 0), 10, 256)
	b := Disk(V2(12, 0), 10, 256)
	got := Intersect(a, b, &BoolOpts{CellKm: 0.08}).Area()
	want := lensArea(10, 10, 12)
	if math.Abs(got-want) > want*0.03 {
		t.Errorf("lens area = %.3f, want %.3f", got, want)
	}
}

func TestUnionDisksExactArea(t *testing.T) {
	a := Disk(V2(0, 0), 10, 256)
	b := Disk(V2(12, 0), 10, 256)
	got := Union(a, b, &BoolOpts{CellKm: 0.08}).Area()
	want := 2*math.Pi*100 - lensArea(10, 10, 12)
	if math.Abs(got-want) > want*0.03 {
		t.Errorf("union area = %.3f, want %.3f", got, want)
	}
}

func TestSubtractDisks(t *testing.T) {
	a := Disk(V2(0, 0), 10, 256)
	b := Disk(V2(12, 0), 10, 256)
	got := Subtract(a, b, &BoolOpts{CellKm: 0.08}).Area()
	want := math.Pi*100 - lensArea(10, 10, 12)
	if math.Abs(got-want) > want*0.03 {
		t.Errorf("difference area = %.3f, want %.3f", got, want)
	}
}

// The TestClip… cases are the ones the polygon clipper was held to; the raster
// booleans are held to the same shapes, at a stated cell, within nearArea.

func TestClipTrianglesOverlap(t *testing.T) {
	// Two overlapping triangles: the intersection is a hexagon of area 33,
	// its four slanted sides √11.25 long and its two flat ones 4.
	a := RegionFromRing(Ring{V2(0, 0), V2(10, 0), V2(5, 10)})
	b := RegionFromRing(Ring{V2(0, 6), V2(10, 6), V2(5, -4)})
	reg := Intersect(a, b, &BoolOpts{CellKm: 0.1})
	nearArea(t, "triangles", reg, 33, 8+4*math.Sqrt(11.25), 0.1)
	if !reg.Contains(V2(5, 3)) {
		t.Error("overlap centre missing")
	}
	if reg.Contains(V2(5, 9)) {
		t.Error("apex of a outside b should be excluded")
	}
}

func TestClipIdenticalRings(t *testing.T) {
	a := Disk(V2(0, 0), 10, 64)
	opts := &BoolOpts{CellKm: 0.1}
	perimeter := 2 * math.Pi * 10
	nearArea(t, "A ∩ A", Intersect(a, a.Clone(), opts), a.Area(), perimeter, 0.1)
	nearArea(t, "A ∪ A", Union(a, a.Clone(), opts), a.Area(), perimeter, 0.1)
	if d := Subtract(a, a.Clone(), opts); !d.IsEmpty() {
		t.Errorf("A \\ A has area %v, want none", d.Area())
	}
}

func TestClipCrossShapes(t *testing.T) {
	// A plus sign: horizontal bar ∩ vertical bar = the centre square, the
	// union the twelve-sided cross, the difference two stubs of the bar.
	h := Rect(V2(-10, -2), V2(10, 2))
	v := Rect(V2(-2, -10), V2(2, 10))
	opts := &BoolOpts{CellKm: 0.25}
	nearArea(t, "cross ∩", Intersect(h, v, opts), 16, 16, 0.25)
	nearArea(t, "cross ∪", Union(h, v, opts), h.Area()+v.Area()-16, 80, 0.25)
	s := Subtract(h, v, opts)
	nearArea(t, "cross \\", s, h.Area()-16, 48, 0.25)
	if len(s.Rings) != 2 {
		t.Errorf("difference should split into 2 rings, got %d", len(s.Rings))
	}
}

func TestClipSubtractBites(t *testing.T) {
	// Subtracting a disk centred on the square's edge bites half of it out.
	sq := RegionFromRing(square(0, 0, 10))
	bite := Disk(V2(10, 0), 6, 64)
	got := Subtract(sq, bite, &BoolOpts{CellKm: 0.1})
	nearArea(t, "bitten square", got, sq.Area()-bite.Area()/2, 80-12+math.Pi*6, 0.1)
	if got.Contains(V2(9, 0)) {
		t.Error("bitten zone should be excluded")
	}
	if !got.Contains(V2(-9, 0)) {
		t.Error("far side should remain")
	}
}

func TestClipCWInputNormalized(t *testing.T) {
	// A clockwise ring is an area ring once RegionFromRing has turned it.
	a := square(0, 0, 5)
	reverseRing(a)
	reg := Intersect(RegionFromRing(a), RegionFromRing(square(3, 0, 5)), &BoolOpts{CellKm: 0.1})
	nearArea(t, "overlap 7 wide, 10 tall", reg, 70, 34, 0.1)
}

func TestBooleanDisjointAndNested(t *testing.T) {
	big := Disk(V2(0, 0), 20, 128)
	small := Disk(V2(0, 0), 5, 128)
	far := Disk(V2(100, 0), 5, 128)

	if got := Intersect(big, far, nil); !got.IsEmpty() {
		t.Errorf("disjoint intersect should be empty, got area %v", got.Area())
	}
	if got := Intersect(big, small, nil).Area(); math.Abs(got-small.Area()) > small.Area()*0.01 {
		t.Errorf("nested intersect = %v, want inner area %v", got, small.Area())
	}
	// The automatic cell comes from the box the result can occupy: the small
	// operand's, at the 0.2 km floor, not the continent's 21 km.
	continent := Rect(V2(-3000, -3000), V2(3000, 3000))
	nearArea(t, "small ∩ continental", Intersect(small, continent, nil), small.Area(), 2*math.Pi*5, 0.2)
	nearArea(t, "small \\ far continent", Subtract(small, Rect(V2(50, -3000), V2(6000, 3000)), nil), small.Area(), 0, 0)
	// Boxes that only touch, here at a corner, hold no area in common.
	if got := Intersect(RegionFromRing(square(0, 0, 5)), RegionFromRing(square(10, 10, 5)), nil); !got.IsEmpty() {
		t.Errorf("corner-touching squares intersect in area %v", got.Area())
	}
	if got := Union(big, small, nil).Area(); math.Abs(got-big.Area()) > big.Area()*0.01 {
		t.Errorf("nested union = %v, want outer area %v", got, big.Area())
	}
	u := Union(big, far, nil)
	wantU := big.Area() + far.Area()
	if math.Abs(u.Area()-wantU) > wantU*0.01 {
		t.Errorf("disjoint union area = %v, want %v", u.Area(), wantU)
	}
	if len(u.Rings) != 2 {
		t.Errorf("disjoint union should have 2 rings, got %d", len(u.Rings))
	}
	// big \ small = annulus with a hole.
	diff := Subtract(big, small, nil)
	wantD := big.Area() - small.Area()
	if math.Abs(diff.Area()-wantD) > wantD*0.01 {
		t.Errorf("nested subtract area = %v, want %v", diff.Area(), wantD)
	}
	if diff.Contains(V2(0, 0)) {
		t.Error("hole centre should be excluded after subtraction")
	}
	if !diff.Contains(V2(10, 0)) {
		t.Error("annulus interior should be included")
	}
	// small \ big = empty.
	if got := Subtract(small, big, nil); !got.IsEmpty() {
		t.Errorf("inner minus outer should be empty, got %v", got.Area())
	}
}

func TestBooleanWithEmpty(t *testing.T) {
	d := Disk(V2(0, 0), 10, 64)
	e := EmptyRegion()
	if !Intersect(d, e, nil).IsEmpty() || !Intersect(e, d, nil).IsEmpty() {
		t.Error("intersect with empty should be empty")
	}
	if got := Union(d, e, nil).Area(); math.Abs(got-d.Area()) > 1e-9 {
		t.Error("union with empty should be identity")
	}
	if got := Subtract(d, e, nil).Area(); math.Abs(got-d.Area()) > 1e-9 {
		t.Error("subtract empty should be identity")
	}
	if !Subtract(e, d, nil).IsEmpty() {
		t.Error("empty minus anything should be empty")
	}
}

// Property: the raster intersection of random disk pairs has the analytic
// lens area, within the perimeter of the smaller disk (the lens is convex and
// inside it) times the cell.
func TestRasterMatchesLensAreaOnRandomDisks(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		r1 := 5 + 15*rng.Float64()
		r2 := 5 + 15*rng.Float64()
		d := 30 * rng.Float64()
		a := Disk(V2(0, 0), r1, 128)
		b := Disk(V2(d, 0), r2, 128)
		got := Intersect(a, b, &BoolOpts{CellKm: 0.15}).Area()
		return math.Abs(got-lensArea(r1, r2, d)) <= 2*math.Pi*math.Min(r1, r2)*0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: intersection is commutative and monotone (area ≤ both inputs).
func TestIntersectionProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		a := Disk(V2(rng.Float64()*20, rng.Float64()*20), 5+10*rng.Float64(), 96)
		b := Disk(V2(rng.Float64()*20, rng.Float64()*20), 5+10*rng.Float64(), 96)
		ab := Intersect(a, b, nil).Area()
		ba := Intersect(b, a, nil).Area()
		tol := 0.03*math.Max(ab, ba) + 2
		if math.Abs(ab-ba) > tol {
			return false
		}
		return ab <= a.Area()+tol && ab <= b.Area()+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: union area = A + B − intersection (inclusion–exclusion).
func TestInclusionExclusion(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		a := Disk(V2(0, 0), 8+8*rng.Float64(), 128)
		b := Disk(V2(20*rng.Float64(), 10*rng.Float64()), 8+8*rng.Float64(), 128)
		u := Union(a, b, nil).Area()
		i := Intersect(a, b, nil).Area()
		want := a.Area() + b.Area() - i
		return math.Abs(u-want) <= 0.02*want+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBufferDilateErode(t *testing.T) {
	d := Disk(V2(0, 0), 10, 128)
	grown := Buffer(d, 5, 0.2)
	wantG := math.Pi * 15 * 15
	if math.Abs(grown.Area()-wantG) > wantG*0.05 {
		t.Errorf("dilated area %v, want ≈ %v", grown.Area(), wantG)
	}
	shrunk := Buffer(d, -5, 0.2)
	wantS := math.Pi * 5 * 5
	if math.Abs(shrunk.Area()-wantS) > wantS*0.10 {
		t.Errorf("eroded area %v, want ≈ %v", shrunk.Area(), wantS)
	}
	// Eroding past the radius empties the region.
	if got := Buffer(d, -11, 0.2); !got.IsEmpty() {
		t.Errorf("over-erosion should be empty, got %v", got.Area())
	}
	// Buffer(0) is identity.
	if got := Buffer(d, 0, 0); math.Abs(got.Area()-d.Area()) > 1e-9 {
		t.Error("Buffer(0) should be identity")
	}
	if !Buffer(EmptyRegion(), 5, 0).IsEmpty() {
		t.Error("buffering empty should stay empty")
	}
}

func TestBufferDilationContainsOriginal(t *testing.T) {
	d := Disk(V2(3, -2), 8, 96)
	grown := Buffer(d, 3, 0.2)
	for _, p := range samplePoints(d, 60) {
		if !grown.Contains(p) {
			t.Errorf("dilation lost original point %v", p)
		}
	}
	shrunk := Buffer(d, -3, 0.2)
	for _, p := range samplePoints(shrunk, 60) {
		if !d.Contains(p) {
			t.Errorf("erosion produced point outside original: %v", p)
		}
	}
}

// samplePoints returns up to n points inside r, from a grid over its
// bounding box.
func samplePoints(r *Region, n int) []Vec2 {
	min, max, _ := r.BoundingBox()
	side := int(math.Ceil(math.Sqrt(float64(n) * 4)))
	var out []Vec2
	for iy := 0; iy < side && len(out) < n; iy++ {
		for ix := 0; ix < side && len(out) < n; ix++ {
			p := Vec2{
				X: min.X + (max.X-min.X)*(float64(ix)+0.5)/float64(side),
				Y: min.Y + (max.Y-min.Y)*(float64(iy)+0.5)/float64(side),
			}
			if r.Contains(p) {
				out = append(out, p)
			}
		}
	}
	return out
}
