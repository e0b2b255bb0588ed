package geo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func square(cx, cy, half float64) Ring {
	return Ring{
		{cx - half, cy - half}, {cx + half, cy - half},
		{cx + half, cy + half}, {cx - half, cy + half},
	}
}

func TestRingBasics(t *testing.T) {
	r := square(0, 0, 5) // 10x10 square
	if got := r.Area(); !almostEq(got, 100, 1e-9) {
		t.Errorf("Area = %v, want 100", got)
	}
	if !r.IsCCW() {
		t.Error("square should be CCW")
	}
	c := r.Centroid()
	if !almostEq(c.X, 0, 1e-9) || !almostEq(c.Y, 0, 1e-9) {
		t.Errorf("Centroid = %v, want origin", c)
	}
	if !r.Contains(V2(0, 0)) || !r.Contains(V2(4.9, 4.9)) {
		t.Error("Contains should include interior points")
	}
	if r.Contains(V2(5.1, 0)) || r.Contains(V2(0, -6)) {
		t.Error("Contains should exclude exterior points")
	}
	rev := r.Clone()
	reverseRing(rev)
	if rev.IsCCW() {
		t.Error("reversed square should be CW")
	}
	if !almostEq(rev.SignedArea(), -100, 1e-9) {
		t.Errorf("reversed SignedArea = %v", rev.SignedArea())
	}
}

func TestRingDistances(t *testing.T) {
	r := square(0, 0, 5)
	if d := r.DistanceTo(V2(10, 0)); !almostEq(d, 5, 1e-9) {
		t.Errorf("DistanceTo = %v, want 5", d)
	}
	if d := r.DistanceTo(V2(0, 0)); !almostEq(d, 5, 1e-9) {
		t.Errorf("DistanceTo centre = %v, want 5 (boundary distance)", d)
	}
	if d := r.MaxDistanceTo(V2(0, 0)); !almostEq(d, 5*math.Sqrt2, 1e-9) {
		t.Errorf("MaxDistanceTo = %v, want %v", d, 5*math.Sqrt2)
	}
}

func TestRegionWithHole(t *testing.T) {
	outer := square(0, 0, 10)
	inner := square(0, 0, 4)
	reverseRing(inner) // clockwise: a hole
	reg := &Region{Rings: []Ring{outer, inner}}
	want := 400.0 - 64.0
	if got := reg.Area(); !almostEq(got, want, 1e-9) {
		t.Errorf("Area = %v, want %v", got, want)
	}
	if reg.Contains(V2(0, 0)) {
		t.Error("hole interior should not be contained")
	}
	if !reg.Contains(V2(7, 0)) {
		t.Error("annular area should be contained")
	}
	if reg.Contains(V2(11, 0)) {
		t.Error("outside should not be contained")
	}
}

func TestDiskAndAnnulus(t *testing.T) {
	d := Disk(V2(3, 4), 10, 128)
	if got, want := d.Area(), math.Pi*100; math.Abs(got-want) > want*0.01 {
		t.Errorf("disk area = %v, want ≈ %v", got, want)
	}
	if !d.Contains(V2(3, 4)) || d.Contains(V2(3, 15)) {
		t.Error("disk containment wrong")
	}
	an := Annulus(V2(0, 0), 5, 10, 128)
	wantA := math.Pi * (100 - 25)
	if got := an.Area(); math.Abs(got-wantA) > wantA*0.01 {
		t.Errorf("annulus area = %v, want ≈ %v", got, wantA)
	}
	if an.Contains(V2(0, 0)) {
		t.Error("annulus should exclude inner disk")
	}
	if !an.Contains(V2(7, 0)) {
		t.Error("annulus should contain ring area")
	}
	if !Annulus(V2(0, 0), 10, 5, 32).IsEmpty() {
		t.Error("inverted annulus should be empty")
	}
	if !Disk(V2(0, 0), -1, 32).IsEmpty() {
		t.Error("negative-radius disk should be empty")
	}
}

func TestRegionCentroidBBox(t *testing.T) {
	reg := RegionFromRing(square(10, -5, 2))
	c := reg.Centroid()
	if !almostEq(c.X, 10, 1e-9) || !almostEq(c.Y, -5, 1e-9) {
		t.Errorf("Centroid = %v", c)
	}
	min, max, ok := reg.BoundingBox()
	if !ok || !almostEq(min.X, 8, 1e-9) || !almostEq(max.Y, -3, 1e-9) {
		t.Errorf("BoundingBox = %v %v %v", min, max, ok)
	}
	if _, _, ok := EmptyRegion().BoundingBox(); ok {
		t.Error("empty region should have no bbox")
	}
	var nilReg *Region
	if !nilReg.IsEmpty() || nilReg.Area() != 0 || nilReg.Contains(V2(0, 0)) {
		t.Error("nil region should behave as empty")
	}
}

func TestSamplePoints(t *testing.T) {
	reg := Disk(V2(0, 0), 10, 64)
	pts := reg.SamplePoints(50)
	if len(pts) == 0 {
		t.Fatal("no sample points")
	}
	for _, p := range pts {
		if !reg.Contains(p) {
			t.Errorf("sample point %v outside region", p)
		}
	}
}

func TestSimplifyPreservesArea(t *testing.T) {
	d := Disk(V2(0, 0), 100, 256)
	s := d.Simplify(0.5)
	if s.VertexCount() >= d.VertexCount() {
		t.Errorf("Simplify did not reduce vertices: %d → %d", d.VertexCount(), s.VertexCount())
	}
	if rel := math.Abs(s.Area()-d.Area()) / d.Area(); rel > 0.02 {
		t.Errorf("Simplify changed area by %.2f%%", rel*100)
	}
}

func TestRingSimplifyDegenerate(t *testing.T) {
	short := Ring{{0, 0}, {1, 0}, {0, 1}}
	if got := short.Simplify(10); len(got) != 3 {
		t.Errorf("simplifying a triangle should keep it, got %d vertices", len(got))
	}
}

// Property: a random convex-ish polygon's centroid is inside it, and
// signedArea flips under reversal.
func TestRingProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 5 + rng.IntN(30)
		ring := make(Ring, n)
		for i := range ring {
			a := 2 * math.Pi * float64(i) / float64(n)
			r := 5 + 10*rng.Float64()
			ring[i] = V2(r*math.Cos(a), r*math.Sin(a))
		}
		area := ring.SignedArea()
		rev := ring.Clone()
		reverseRing(rev)
		if !almostEq(area, -rev.SignedArea(), 1e-9) {
			return false
		}
		// Star-shaped around origin → origin inside.
		return ring.Contains(V2(0, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
