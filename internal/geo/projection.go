package geo

import "math"

// Projection is an azimuthal equidistant projection centred at a reference
// point. Distances and bearings from the centre are preserved exactly, which
// makes the projection the natural choice for constraint regions defined as
// distance bounds from landmarks near the centre (the projection error of a
// disk a few thousand km from the centre is a small fraction of its radius,
// and Octant's own error budget dominates it).
//
// Forward maps geographic points to plane coordinates in kilometres; Inverse
// maps back. The zero Projection is centred at (0°, 0°) and usable.
//
// Projections built with NewProjection carry the centre's precomputed
// tangent frame, putting Forward and GeoCircle on the unit-vector fast
// path (see sphere.go); a zero Projection rebuilds the frame per call.
type Projection struct {
	Center Point

	frame    Frame
	hasFrame bool
}

// NewProjection returns a projection centred at c.
func NewProjection(c Point) *Projection {
	return &Projection{Center: c, frame: NewFrame(c), hasFrame: true}
}

// Frame returns the centre's tangent frame (precomputed by NewProjection,
// rebuilt on the fly for a zero Projection).
func (pr *Projection) Frame() Frame {
	if pr.hasFrame {
		return pr.frame
	}
	return NewFrame(pr.Center)
}

// Forward projects a geographic point into the plane (km east, km north of
// the centre along the azimuthal equidistant mapping).
func (pr *Projection) Forward(p Point) Vec2 {
	if pr.hasFrame {
		return pr.frame.Forward(p)
	}
	return NewFrame(pr.Center).Forward(p)
}

// Inverse maps a plane coordinate back to a geographic point.
func (pr *Projection) Inverse(v Vec2) Point {
	d := v.Len()
	if d == 0 {
		return pr.Center
	}
	bearing := math.Atan2(v.X, v.Y) // from north, clockwise
	if bearing < 0 {
		bearing += 2 * math.Pi
	}
	return pr.Center.Destination(bearing, d)
}

// GeoCircle returns a polygonal approximation (n vertices, counter-clockwise)
// of the set of plane points at great-circle distance radiusKm from the
// geographic point center. The circle is sampled on the sphere and each
// sample projected, so the result is exact up to sampling even far from the
// projection centre.
func (pr *Projection) GeoCircle(center Point, radiusKm float64, n int) []Vec2 {
	if n < 3 {
		n = 3
	}
	cf, lf := pr.Frame(), NewFrame(center)
	return cf.AppendGeoCircle(make([]Vec2, 0, n), &lf, radiusKm, n)
}

// ensureCCW reverses ring in place if it is clockwise.
func ensureCCW(ring []Vec2) {
	if signedArea(ring) < 0 {
		reverseRing(ring)
	}
}

func reverseRing(ring []Vec2) {
	for i, j := 0, len(ring)-1; i < j; i, j = i+1, j-1 {
		ring[i], ring[j] = ring[j], ring[i]
	}
}
