package geo

import "math"

// The unit-vector fast path for constraint geometry.
//
// Constraint construction is dominated by trigonometry: the reference
// spherical pipeline pays Destination + haversine + BearingTo (~15 libm
// calls) per circle vertex. Representing positions as 3D unit vectors with
// precomputed orthonormal tangent frames removes almost all of it: a
// geodesic circle of radius r about a landmark L̂ is
//
//	v(θ) = cos(a)·L̂ + sin(a)·(cosθ·N̂ + sinθ·Ê),  a = r/R,
//
// with cos(a), sin(a) computed once per disk and cosθ/sinθ drawn from a
// fixed package-level bearing table — zero libm calls per vertex — and
// projecting v(θ) into the azimuthal-equidistant plane needs one sqrt and a
// polynomial arc tangent per vertex (arc; distance and direction read off the
// projection centre's own tangent frame).
//
// The fused path is property-tested against the reference spherical
// implementations (forwardReference, geoCircleReference in
// reference_test.go) to < 1 m over random centres and radii, including antimeridian and
// high-latitude cases.

// Vec3 is a 3-vector in the Earth-centred unit-sphere model: X towards
// (0°, 0°), Y towards (0°, 90°E), Z towards the north pole.
type Vec3 struct {
	X, Y, Z float64
}

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// UnitVec returns the unit vector of a geographic point.
func UnitVec(p Point) Vec3 {
	sinLat, cosLat := math.Sincos(deg2rad(p.Lat))
	sinLon, cosLon := math.Sincos(deg2rad(p.Lon))
	return Vec3{X: cosLat * cosLon, Y: cosLat * sinLon, Z: sinLat}
}

// Frame is a position on the sphere with its orthonormal tangent frame:
// U the unit position vector, E the unit east tangent, N the unit north
// tangent. A Frame is immutable and safe to share between goroutines;
// precomputing one per landmark (and one per projection centre) is what
// lets circle construction and projection run libm-free per vertex.
type Frame struct {
	Origin  Point
	U, E, N Vec3
}

// NewFrame builds the tangent frame at p.
func NewFrame(p Point) Frame {
	sinLat, cosLat := math.Sincos(deg2rad(p.Lat))
	sinLon, cosLon := math.Sincos(deg2rad(p.Lon))
	return Frame{
		Origin: p,
		U:      Vec3{X: cosLat * cosLon, Y: cosLat * sinLon, Z: sinLat},
		E:      Vec3{X: -sinLon, Y: cosLon, Z: 0},
		N:      Vec3{X: -sinLat * cosLon, Y: -sinLat * sinLon, Z: cosLat},
	}
}

// ForwardVec projects a unit vector into f's azimuthal-equidistant plane
// (km east, km north of f.Origin): the angular distance comes from arc and
// the direction from the vector's components in f's tangent
// frame — no haversine/bearing chain.
func (f Frame) ForwardVec(v Vec3) Vec2 { return azimuthal(v.Dot(f.E), v.Dot(f.N), v.Dot(f.U)) }

// azimuthal maps a unit vector, given by its components along a frame's east
// and north tangents and its position vector, into that frame's plane.
func azimuthal(e, n, u float64) Vec2 {
	rho := math.Sqrt(e*e + n*n)
	if rho == 0 {
		if u >= 0 {
			return Vec2{} // the centre itself
		}
		// Antipode: distance πR, direction undefined; pick north, matching
		// the reference path's bearing-0 convention for degenerate input.
		return Vec2{X: 0, Y: math.Pi * EarthRadiusKm}
	}
	s := EarthRadiusKm * arc(rho, u) / rho
	return Vec2{X: e * s, Y: n * s}
}

// arc returns atan2(rho, u) for rho > 0, in [0, π], with no libm call:
// atan(t) for t = min/max(rho, |u|) ≤ 1 is t·P(t²), P a degree-11 Chebyshev
// fit of atan(√z)/√z on [0, 1] (error under 4e-11 rad, 0.3 mm on the Earth)
// evaluated by Estrin's scheme, and the octant comes from the comparison and
// the sign of u.
func arc(rho, u float64) float64 {
	au := math.Abs(u)
	t := rho / au
	if rho > au {
		t = au / rho
	}
	const (
		c0, c1, c2, c3   = 0.9999999999293037, -0.3333333129088999, 0.19999901102171555, -0.14283813255743194
		c4, c5, c6, c7   = 0.11091922963683302, -0.08974171958363882, 0.07228278345377252, -0.05395668057137172
		c8, c9, c10, c11 = 0.033826218952786875, -0.015828322749149415, 0.00473248419342192, -0.0006633954571104787
	)
	z := t * t
	z2 := z * z
	z4 := z2 * z2
	a := t * (c0 + c1*z + (c2+c3*z)*z2 + z4*(c4+c5*z+(c6+c7*z)*z2+z4*(c8+c9*z+(c10+c11*z)*z2)))
	if rho > au {
		a = math.Pi/2 - a
	}
	if u < 0 {
		a = math.Pi - a
	}
	return a
}

// Forward projects a geographic point into f's plane.
func (f Frame) Forward(p Point) Vec2 { return f.ForwardVec(UnitVec(p)) }

// circleTableN is the size of the shared bearing table. Adaptive vertex
// counts are restricted to divisors of it, so every disk strides the one
// table instead of paying per-vertex sincos.
const circleTableN = 96

var (
	circleSin, circleCos [circleTableN]float64

	// circleCounts are the allowed polygonalization densities (divisors of
	// circleTableN), ascending; circleSagitta[i] is the relative chord
	// error 1-cos(π/n) of an n-gon, so a disk of radius r sampled at
	// circleCounts[i] deviates from the true circle by at most
	// r·circleSagitta[i].
	circleCounts  = [...]int{24, 32, 48, circleTableN}
	circleSagitta [len(circleCounts)]float64
)

func init() {
	for i := range circleSin {
		circleSin[i], circleCos[i] = math.Sincos(2 * math.Pi * float64(i) / circleTableN)
	}
	for i, n := range circleCounts {
		circleSagitta[i] = 1 - math.Cos(math.Pi/float64(n))
	}
}

// CircleSegments picks the polygonalization density for a disk of the
// given radius from a chord-error bound: the smallest allowed vertex count
// whose sagitta r·(1-cos(π/n)) stays within chordTolKm, floor 24, cap 96.
// Small disks (60 km WHOIS/router constraints) stop paying 96 vertices
// while continent-scale latency disks keep full density.
func CircleSegments(radiusKm, chordTolKm float64) int {
	if chordTolKm <= 0 || radiusKm <= 0 {
		return circleTableN
	}
	for i, n := range circleCounts {
		if radiusKm*circleSagitta[i] <= chordTolKm {
			return n
		}
	}
	return circleTableN
}

// AppendGeoCircle appends to dst an n-vertex counter-clockwise polygonal
// approximation of the geodesic circle of radius radiusKm about lm,
// projected into f's plane. This is the fused fast path: cos/sin of the
// radius once per call, bearings from the shared table (per-vertex sincos
// only when n does not divide the table size), one sqrt and one arc per
// vertex for the projection. Equivalent to the reference
// Destination→DistanceKm→BearingTo chain to well under a metre.
//
// The ring is finished when it is returned: signedArea's sum is taken, term
// for term, as the vertices are generated — clockwise in the plane, as
// bearings run, unless the disk holds f's antipode — and a ring whose sum is
// not positive is reversed; a caller can wrap it in a Region as it stands.
func (f *Frame) AppendGeoCircle(dst []Vec2, lm *Frame, radiusKm float64, n int) []Vec2 {
	if n < 3 {
		n = 3
	}
	sinA, cosA := math.Sincos(radiusKm / EarthRadiusKm)
	stride := 0
	if n <= circleTableN && circleTableN%n == 0 {
		stride = circleTableN / n
	}
	base := len(dst)
	var area float64
	var prev Vec2 // the zero vector before vertex 0: a first term of 0
	for i, ti := 0, 0; i < n; i, ti = i+1, ti+stride {
		var st, ct float64
		if stride > 0 {
			st, ct = circleSin[ti], circleCos[ti]
		} else {
			st, ct = math.Sincos(2 * math.Pi * float64(i) / float64(n))
		}
		// d = cosθ·N̂ + sinθ·Ê is the departure direction at the landmark;
		// v = cos(a)·L̂ + sin(a)·d is the circle vertex on the sphere.
		v := Vec3{
			X: cosA*lm.U.X + sinA*(ct*lm.N.X+st*lm.E.X),
			Y: cosA*lm.U.Y + sinA*(ct*lm.N.Y+st*lm.E.Y),
			Z: cosA*lm.U.Z + sinA*(ct*lm.N.Z+st*lm.E.Z),
		}
		p := azimuthal(v.Dot(f.E), v.Dot(f.N), v.Dot(f.U))
		area += prev.X*p.Y - p.X*prev.Y
		prev = p
		dst = append(dst, p)
	}
	if first := dst[base]; !(area+(prev.X*first.Y-first.X*prev.Y) > 0) {
		reverseRing(dst[base:])
	}
	return dst
}
