package geo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// lensArea is the exact area of the intersection of two circles of radius r
// whose centres are d apart.
func lensArea(r, d float64) float64 {
	if d >= 2*r {
		return 0
	}
	if d <= 0 {
		return math.Pi * r * r
	}
	return 2*r*r*math.Acos(d/(2*r)) - d/2*math.Sqrt(4*r*r-d*d)
}

func TestIntersectDisksExactArea(t *testing.T) {
	for _, engine := range []Engine{EngineClip, EngineRaster} {
		a := Disk(V2(0, 0), 10, 256)
		b := Disk(V2(12, 0), 10, 256)
		got := Intersect(a, b, &BoolOpts{Engine: engine, CellKm: 0.08}).Area()
		want := lensArea(10, 12)
		if math.Abs(got-want) > want*0.03 {
			t.Errorf("engine %v: lens area = %.3f, want %.3f", engine, got, want)
		}
	}
}

func TestUnionDisksExactArea(t *testing.T) {
	for _, engine := range []Engine{EngineClip, EngineRaster} {
		a := Disk(V2(0, 0), 10, 256)
		b := Disk(V2(12, 0), 10, 256)
		got := Union(a, b, &BoolOpts{Engine: engine, CellKm: 0.08}).Area()
		want := 2*math.Pi*100 - lensArea(10, 12)
		if math.Abs(got-want) > want*0.03 {
			t.Errorf("engine %v: union area = %.3f, want %.3f", engine, got, want)
		}
	}
}

func TestSubtractDisks(t *testing.T) {
	for _, engine := range []Engine{EngineClip, EngineRaster} {
		a := Disk(V2(0, 0), 10, 256)
		b := Disk(V2(12, 0), 10, 256)
		got := Subtract(a, b, &BoolOpts{Engine: engine, CellKm: 0.08}).Area()
		want := math.Pi*100 - lensArea(10, 12)
		if math.Abs(got-want) > want*0.03 {
			t.Errorf("engine %v: difference area = %.3f, want %.3f", engine, got, want)
		}
	}
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

// Property test: the two boolean engines agree on intersection area for
// random disk pairs. This cross-validates Greiner–Hormann against the
// raster tracer.
func TestEnginesAgreeOnRandomDisks(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		r1 := 5 + 15*rng.Float64()
		r2 := 5 + 15*rng.Float64()
		d := 30 * rng.Float64()
		a := Disk(V2(0, 0), r1, 128)
		b := Disk(V2(d, 0), r2, 128)
		clipA := Intersect(a, b, &BoolOpts{Engine: EngineClip}).Area()
		rastA := Intersect(a, b, &BoolOpts{Engine: EngineRaster, CellKm: 0.15}).Area()
		tol := 0.05*math.Max(clipA, rastA) + 3.0
		return math.Abs(clipA-rastA) <= tol
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
		opts := &BoolOpts{Engine: EngineClip}
		u := Union(a, b, opts).Area()
		i := Intersect(a, b, opts).Area()
		want := a.Area() + b.Area() - i
		return math.Abs(u-want) <= 0.02*want+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUnionAll(t *testing.T) {
	regs := []*Region{
		Disk(V2(0, 0), 5, 64),
		Disk(V2(20, 0), 5, 64),
		Disk(V2(40, 0), 5, 64),
	}
	u := UnionAll(regs, nil)
	want := 3 * math.Pi * 25
	if math.Abs(u.Area()-want) > want*0.03 {
		t.Errorf("UnionAll area %v, want %v", u.Area(), want)
	}
	if len(u.Rings) != 3 {
		t.Errorf("expected 3 disjoint rings, got %d", len(u.Rings))
	}
	if !UnionAll(nil, nil).IsEmpty() {
		t.Error("UnionAll(nil) should be empty")
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
	for _, p := range d.SamplePoints(60) {
		if !grown.Contains(p) {
			t.Errorf("dilation lost original point %v", p)
		}
	}
	shrunk := Buffer(d, -3, 0.2)
	for _, p := range shrunk.SamplePoints(60) {
		if !d.Contains(p) {
			t.Errorf("erosion produced point outside original: %v", p)
		}
	}
}
