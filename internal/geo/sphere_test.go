package geo

import (
	"math"
	"math/rand"
	"testing"
)

// propertyCenters are projection centres chosen to stress the fast path's
// agreement with the reference spherical implementation: equator, both
// high-latitude bands, and both sides of the antimeridian.
var propertyCenters = []Point{
	{Lat: 0, Lon: 0},
	{Lat: 0, Lon: 90},
	{Lat: 40, Lon: -95},
	{Lat: 75, Lon: 10},
	{Lat: -75, Lon: -130},
	{Lat: 12, Lon: 179.8},
	{Lat: -33, Lon: -179.9},
	{Lat: 51.5, Lon: -0.1},
}

const propertyTolKm = 0.001 // < 1 m

// TestFrameForwardMatchesReference checks the unit-vector Forward against
// the retained haversine+bearing reference over random points around each
// stress centre.
func TestFrameForwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range propertyCenters {
		pr := NewProjection(c)
		for i := 0; i < 500; i++ {
			// Random destination up to ~8000 km away, sampled on the
			// sphere so antimeridian wraps and pole proximity occur
			// naturally.
			p := c.Destination(2*math.Pi*rng.Float64(), 8000*rng.Float64())
			fast := pr.Forward(p)
			ref := pr.forwardReference(p)
			if d := fast.Dist(ref); d > propertyTolKm {
				t.Fatalf("Forward mismatch at centre %v point %v: fast %v ref %v (Δ %.6f km)",
					c, p, fast, ref, d)
			}
		}
	}
}

// TestFusedGeoCircleMatchesReference checks the fused unit-vector circle
// construction (frame circle + tangent-plane projection, its polynomial arc
// tangent included) vertex-by-vertex against the reference Destination→Forward
// chain to under a metre, across the adaptive vertex counts, non-divisor
// counts and radii from city disks to continental bounds, around centres at
// the equator, at ±75° and astride the antimeridian. The last disks of each
// centre lie 15,000–17,000 km out with radii that reach past the centre's
// antipode: their vertices sit behind the far side of the map.
func TestFusedGeoCircleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	radii := []float64{1, 30, 60, 250, 1000, 3000, 6000}
	antipodal := 0
	for _, c := range propertyCenters {
		pr := NewProjection(c)
		anti := Pt(-c.Lat, c.Lon+180)
		for i := 0; i < 48; i++ {
			lm := c.Destination(2*math.Pi*rng.Float64(), 5000*rng.Float64())
			r := radii[i%len(radii)] * (0.5 + rng.Float64())
			if i >= 40 {
				lm = c.Destination(2*math.Pi*rng.Float64(), 15000+2000*rng.Float64())
				r = lm.DistanceKm(anti) + 1000 + 3000*rng.Float64()
				antipodal++
			}
			for _, n := range []int{24, 32, 48, 96, 17, 50} {
				fast := pr.GeoCircle(lm, r, n)
				ref := pr.geoCircleReference(lm, r, n)
				if len(fast) != len(ref) {
					t.Fatalf("vertex count mismatch: %d vs %d", len(fast), len(ref))
				}
				for j := range fast {
					if d := fast[j].Dist(ref[j]); d > propertyTolKm {
						t.Fatalf("GeoCircle mismatch centre %v landmark %v r=%.1f n=%d vertex %d: fast %v ref %v (Δ %.6f km)",
							c, lm, r, n, j, fast[j], ref[j], d)
					}
				}
			}
		}
	}
	if antipodal == 0 {
		t.Error("no disk held a centre's antipode")
	}
}

// TestGeoCircleNonDivisorCount exercises the sincos fallback for vertex
// counts that do not divide the bearing table.
func TestGeoCircleNonDivisorCount(t *testing.T) {
	pr := NewProjection(Pt(40, -95))
	lm := Pt(42, -90)
	for _, n := range []int{7, 17, 50, 100} {
		fast := pr.GeoCircle(lm, 500, n)
		ref := pr.geoCircleReference(lm, 500, n)
		for j := range fast {
			if d := fast[j].Dist(ref[j]); d > propertyTolKm {
				t.Fatalf("n=%d vertex %d: Δ %.6f km", n, j, d)
			}
		}
	}
}

// TestCircleSegments pins the adaptive polygonalization: the chord error
// of the chosen count stays within tolerance, counts never leave
// [24, 96], and they divide the bearing table.
func TestCircleSegments(t *testing.T) {
	const tol = 1.0
	for _, r := range []float64{0.5, 10, 60, 120, 300, 900, 3000, 20000} {
		n := CircleSegments(r, tol)
		if n < 24 || n > 96 || circleTableN%n != 0 {
			t.Fatalf("CircleSegments(%g) = %d: outside [24, 96] or not a table divisor", r, n)
		}
		sagitta := r * (1 - math.Cos(math.Pi/float64(n)))
		if n < 96 && sagitta > tol {
			t.Errorf("CircleSegments(%g) = %d: sagitta %.3f km exceeds tolerance", r, n, sagitta)
		}
	}
	if n := CircleSegments(60, tol); n != 24 {
		t.Errorf("a 60 km disk should polygonalize at the 24-vertex floor, got %d", n)
	}
	if n := CircleSegments(3000, tol); n != 96 {
		t.Errorf("a 3000 km disk should stay at the 96-vertex cap, got %d", n)
	}
}

// TestUnitVecRoundTrip sanity-checks the Vec3 <-> Point conversion.
func TestUnitVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		p := Pt(rng.Float64()*180-90, rng.Float64()*360-180)
		v := UnitVec(p)
		q := Point{Lat: rad2deg(math.Asin(clamp(v.Z, -1, 1))), Lon: rad2deg(math.Atan2(v.Y, v.X))}
		if p.DistanceKm(q) > 1e-6 {
			t.Fatalf("round trip moved %v to %v", p, q)
		}
	}
}

// TestAppendGeoCircleBitIdentical: the single-walk circle against the
// three-walk reference (with its own copy of the projection kernel), byte for
// byte, over random centres, landmarks and
// radii — city pins to disks wider than a hemisphere, antimeridian and
// high-latitude centres, table and non-table vertex counts. Bearings run
// clockwise, so an ordinary disk is generated clockwise in the plane and
// reversed; one that holds the projection centre's antipode is generated
// counter-clockwise and kept: both outcomes are exercised, and the result is
// counter-clockwise either way.
func TestAppendGeoCircleBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	kept, reversed := 0, 0
	for _, c := range propertyCenters {
		cf := NewFrame(c)
		for i := 0; i < 400; i++ {
			lm := c.Destination(2*math.Pi*rng.Float64(), 19000*rng.Float64())
			lf := NewFrame(lm)
			r := []float64{1, 30, 250, 3000, 9000, 15000, 19500}[i%7] * (0.5 + rng.Float64())
			n := []int{24, 32, 48, 96, 17}[i%5]
			prefix := []Vec2{{1, 2}} // appended to, not overwritten
			got := cf.AppendGeoCircle(prefix, &lf, r, n)
			want := cf.appendGeoCircleReference(prefix[:1:1], lf, r, n)
			if len(got) != n+1 || got[0] != prefix[0] {
				t.Fatalf("centre %v landmark %v r=%.0f n=%d: %d vertices after a prefix of 1", c, lm, r, n, len(got))
			}
			for j := range want {
				if math.Float64bits(got[j].X) != math.Float64bits(want[j].X) || math.Float64bits(got[j].Y) != math.Float64bits(want[j].Y) {
					t.Fatalf("centre %v landmark %v r=%.0f n=%d: vertex %d is %v, reference %v", c, lm, r, n, j-1, got[j], want[j])
				}
			}
			ring := Ring(got[1:])
			if !ring.IsCCW() {
				t.Fatalf("centre %v landmark %v r=%.0f n=%d: ring is not counter-clockwise", c, lm, r, n)
			}
			// Vertex 0 of the generating loop is the point r due north of lm.
			sinA, cosA := math.Sincos(r / EarthRadiusKm)
			north := cf.ForwardVec(Vec3{cosA*lf.U.X + sinA*lf.N.X, cosA*lf.U.Y + sinA*lf.N.Y, cosA*lf.U.Z + sinA*lf.N.Z})
			switch north {
			case ring[0]:
				kept++
			case ring[n-1]:
				reversed++
			default:
				t.Fatalf("centre %v landmark %v r=%.0f n=%d: the due-north vertex %v is neither first nor last", c, lm, r, n, north)
			}
		}
	}
	if kept < 100 || reversed < 1000 {
		t.Errorf("%d rings kept their order and %d were reversed: the suite should exercise both", kept, reversed)
	}
}
