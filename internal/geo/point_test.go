package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		name   string
		a, b   Point
		wantKm float64
		tolKm  float64
	}{
		{"NYC-LA", Pt(40.7128, -74.0060), Pt(34.0522, -118.2437), 3936, 30},
		{"London-Paris", Pt(51.5074, -0.1278), Pt(48.8566, 2.3522), 344, 5},
		{"same-point", Pt(42.44, -76.50), Pt(42.44, -76.50), 0, 1e-9},
		{"antipodal-ish", Pt(0, 0), Pt(0, 180), math.Pi * EarthRadiusKm, 1},
		{"pole-to-pole", Pt(90, 0), Pt(-90, 0), math.Pi * EarthRadiusKm, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.a.DistanceKm(c.b)
			if !almostEq(got, c.wantKm, c.tolKm) {
				t.Errorf("DistanceKm(%v, %v) = %.2f, want %.2f ± %.2f", c.a, c.b, got, c.wantKm, c.tolKm)
			}
		})
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Pt(math.Mod(lat1, 90), math.Mod(lon1, 180))
		b := Pt(math.Mod(lat2, 90), math.Mod(lon2, 180))
		return almostEq(a.DistanceKm(b), b.DistanceKm(a), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := Pt(math.Mod(lat1, 90), math.Mod(lon1, 180))
		b := Pt(math.Mod(lat2, 90), math.Mod(lon2, 180))
		c := Pt(math.Mod(lat3, 90), math.Mod(lon3, 180))
		return a.DistanceKm(b)+b.DistanceKm(c) >= a.DistanceKm(c)-1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	f := func(lat, lon, bearing, dist float64) bool {
		p := Pt(math.Mod(lat, 80), math.Mod(lon, 180)) // avoid poles
		d := math.Mod(math.Abs(dist), 5000) + 1
		b := math.Mod(math.Abs(bearing), 2*math.Pi)
		q := p.Destination(b, d)
		return almostEq(p.DistanceKm(q), d, d*1e-6+1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationBearingConsistency(t *testing.T) {
	p := Pt(42.44, -76.50) // Ithaca
	for _, d := range []float64{10, 100, 1000, 3000} {
		for _, b := range []float64{0, math.Pi / 4, math.Pi / 2, math.Pi, 3 * math.Pi / 2} {
			q := p.Destination(b, d)
			back := p.BearingTo(q)
			diff := math.Abs(back - b)
			if diff > math.Pi {
				diff = 2*math.Pi - diff
			}
			if diff > 1e-6 {
				t.Errorf("Destination bearing %.3f dist %.0f: BearingTo gives %.6f (diff %.2e)", b, d, back, diff)
			}
		}
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{Pt(10, 10), Pt(10, 20), Pt(20, 10), Pt(20, 20)}
	c := Centroid(pts)
	if !almostEq(c.Lat, 15.05, 0.2) || !almostEq(c.Lon, 15, 0.2) {
		t.Errorf("Centroid = %v, want ≈ (15, 15)", c)
	}
	if got := Centroid(nil); got != (Point{}) {
		t.Errorf("Centroid(nil) = %v, want zero", got)
	}
	one := Centroid([]Point{Pt(42, -76)})
	if !almostEq(one.Lat, 42, 1e-9) || !almostEq(one.Lon, -76, 1e-9) {
		t.Errorf("Centroid single = %v", one)
	}
}

func TestLatencyDistanceConversion(t *testing.T) {
	// 10 ms RTT → 5 ms one-way → ~999 km at 2/3 c.
	d := LatencyToMaxDistanceKm(10)
	if !almostEq(d, 5*FiberSpeedKmPerMs, 1e-9) {
		t.Errorf("LatencyToMaxDistanceKm(10) = %.3f", d)
	}
	// Round-trips are inverse.
	for _, km := range []float64{0, 10, 500, 4000} {
		if got := LatencyToMaxDistanceKm(DistanceToMinLatencyMs(km)); !almostEq(got, km, 1e-9) {
			t.Errorf("inverse mismatch at %.0f km: %.6f", km, got)
		}
	}
	if LatencyToMaxDistanceKm(-5) != 0 {
		t.Error("negative latency should clamp to 0 distance")
	}
	if DistanceToMinLatencyMs(-5) != 0 {
		t.Error("negative distance should clamp to 0 latency")
	}
}

func TestPointValid(t *testing.T) {
	valid := []Point{Pt(0, 0), Pt(90, 180), Pt(-90, -180), Pt(42.44, -76.5)}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []Point{Pt(91, 0), Pt(0, 181), Pt(math.NaN(), 0), Pt(-90.01, 0)}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestNormalizeLon(t *testing.T) {
	cases := map[float64]float64{190: -170, -190: 170, 360: 0, 180: 180, -180: 180, 0: 0}
	for in, want := range cases {
		if got := normalizeLonDeg(in); !almostEq(got, want, 1e-9) {
			t.Errorf("normalizeLonDeg(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(Pt(40, -95)) // central US
	pts := []Point{
		Pt(40, -95), Pt(42.44, -76.5), Pt(34.05, -118.24),
		Pt(47.6, -122.3), Pt(25.76, -80.19), Pt(51.5, -0.12),
	}
	for _, p := range pts {
		v := pr.Forward(p)
		q := pr.Inverse(v)
		if d := p.DistanceKm(q); d > 1e-6 {
			t.Errorf("round trip %v → %v → %v (err %.3g km)", p, v, q, d)
		}
	}
}

func TestProjectionPreservesCentralDistances(t *testing.T) {
	pr := NewProjection(Pt(40, -95))
	f := func(lat, lon float64) bool {
		p := Pt(math.Mod(math.Abs(lat), 60), -60-math.Mod(math.Abs(lon), 60))
		v := pr.Forward(p)
		// Azimuthal equidistant: distance from centre is exact.
		return almostEq(v.Len(), pr.Center.DistanceKm(p), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeoCircle(t *testing.T) {
	pr := NewProjection(Pt(40, -95))
	center := Pt(42.44, -76.5)
	const r = 250.0
	ring := Ring(pr.GeoCircle(center, r, 72))
	if !ring.IsCCW() {
		t.Error("GeoCircle ring should be CCW")
	}
	// Every vertex should be at geodesic distance r from center.
	for i, v := range ring {
		p := pr.Inverse(v)
		if d := center.DistanceKm(p); !almostEq(d, r, r*1e-6) {
			t.Fatalf("vertex %d at distance %.4f, want %.1f", i, d, r)
		}
	}
	// Area should approximate πr².
	if a := ring.Area(); !almostEq(a, math.Pi*r*r, math.Pi*r*r*0.02) {
		t.Errorf("circle area %.1f, want ≈ %.1f", a, math.Pi*r*r)
	}
}
