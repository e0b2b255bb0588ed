package geo

import (
	"fmt"
	"math"
)

// Region is an area of the projection plane bounded by one or more closed
// rings. Counter-clockwise rings contribute area; clockwise rings are holes.
// Regions may be non-convex and disconnected — the two properties §2 of the
// paper relies on ("the enclosed area may be non-convex and even consist of
// disconnected regions").
//
// Rings are stored as adaptively sampled polylines; a compact Bezier boundary
// is available via BezierBoundary (ToGeoJSON writes the rings). Regions
// are combined on a raster: many at once by the solver's weight grid, two at
// a time by Intersect, Union and Subtract.
type Region struct {
	Rings []Ring
}

// EmptyRegion returns a region with no area.
func EmptyRegion() *Region { return &Region{} }

// RegionFromRing wraps a single ring (made CCW) as a region.
func RegionFromRing(ring Ring) *Region {
	rr := ring.Clone()
	ensureCCW(rr)
	return &Region{Rings: []Ring{rr}}
}

// ringInteriorPoint returns a point in the interior of the ring (the centroid
// if it is inside; otherwise a point nudged inward from the midpoint of the
// longest edge).
func ringInteriorPoint(ring Ring) Vec2 {
	c := ring.Centroid()
	if windingNumber(ring, c) != 0 {
		return c
	}
	// Fall back: walk candidate points just inside each edge midpoint.
	n := len(ring)
	for i := 0; i < n; i++ {
		a, b := ring[i], ring[(i+1)%n]
		mid := a.Lerp(b, 0.5)
		normal := b.Sub(a).Perp().Normalize()
		eps := math.Max(1e-6, a.Dist(b)*1e-3)
		for _, s := range []float64{eps, -eps} {
			p := mid.Add(normal.Scale(s))
			if windingNumber(ring, p) != 0 {
				return p
			}
		}
	}
	return c
}

// IsEmpty reports whether the region encloses (numerically) no area.
func (r *Region) IsEmpty() bool {
	return r == nil || r.Area() < 1e-9
}

// Area returns the enclosed area in km² (holes subtract).
func (r *Region) Area() float64 {
	if r == nil {
		return 0
	}
	var a float64
	for _, ring := range r.Rings {
		a += ring.SignedArea()
	}
	if a < 0 {
		return 0
	}
	return a
}

// Contains reports whether p is inside the region (non-zero total winding).
func (r *Region) Contains(p Vec2) bool {
	if r == nil {
		return false
	}
	wn := 0
	for _, ring := range r.Rings {
		wn += windingNumber(ring, p)
	}
	return wn != 0
}

// BoundingBox returns the bounding box of all rings. ok is false for an
// empty region.
func (r *Region) BoundingBox() (min, max Vec2, ok bool) {
	if r == nil || len(r.Rings) == 0 {
		return Vec2{}, Vec2{}, false
	}
	first := true
	for _, ring := range r.Rings {
		if len(ring) == 0 {
			continue
		}
		lo, hi := ring.BoundingBox()
		if first {
			min, max, first = lo, hi, false
			continue
		}
		min.X = math.Min(min.X, lo.X)
		min.Y = math.Min(min.Y, lo.Y)
		max.X = math.Max(max.X, hi.X)
		max.Y = math.Max(max.Y, hi.Y)
	}
	return min, max, !first
}

// Centroid returns the area-weighted centroid of the region. For empty
// regions the zero vector is returned.
func (r *Region) Centroid() Vec2 {
	if r == nil {
		return Vec2{}
	}
	var cx, cy, atot float64
	for _, ring := range r.Rings {
		a := ring.SignedArea()
		c := ring.Centroid()
		cx += c.X * a
		cy += c.Y * a
		atot += a
	}
	if math.Abs(atot) < 1e-12 {
		// Degenerate: average vertices.
		var c Vec2
		n := 0
		for _, ring := range r.Rings {
			for _, v := range ring {
				c = c.Add(v)
				n++
			}
		}
		if n > 0 {
			return c.Scale(1 / float64(n))
		}
		return Vec2{}
	}
	return Vec2{cx / atot, cy / atot}
}

// Clone returns a deep copy.
func (r *Region) Clone() *Region {
	if r == nil {
		return nil
	}
	out := &Region{Rings: make([]Ring, len(r.Rings))}
	for i, ring := range r.Rings {
		out.Rings[i] = ring.Clone()
	}
	return out
}

// VertexCount returns the total number of vertices across rings.
func (r *Region) VertexCount() int {
	n := 0
	for _, ring := range r.Rings {
		n += len(ring)
	}
	return n
}

// String summarizes the region.
func (r *Region) String() string {
	return fmt.Sprintf("Region{rings=%d area=%.1fkm²}", len(r.Rings), r.Area())
}

// Disk returns a circular region of the given radius around the centre, as a
// polygonal ring with n vertices (n defaults to 64 when ≤ 0).
func Disk(center Vec2, radiusKm float64, n int) *Region {
	if n <= 0 {
		n = 64
	}
	if radiusKm <= 0 {
		return EmptyRegion()
	}
	ring := make(Ring, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		ring[i] = Vec2{
			X: center.X + radiusKm*math.Cos(a),
			Y: center.Y + radiusKm*math.Sin(a),
		}
	}
	return &Region{Rings: []Ring{ring}}
}

// Annulus returns the region between rInner and rOuter around centre.
func Annulus(center Vec2, rInner, rOuter float64, n int) *Region {
	if rOuter <= rInner {
		return EmptyRegion()
	}
	outer := Disk(center, rOuter, n)
	if rInner <= 0 {
		return outer
	}
	inner := Disk(center, rInner, n)
	hole := inner.Rings[0].Clone()
	reverseRing(hole) // make it a CW hole
	outer.Rings = append(outer.Rings, hole)
	return outer
}

// Rect returns a rectangular region.
func Rect(min, max Vec2) *Region {
	if max.X <= min.X || max.Y <= min.Y {
		return EmptyRegion()
	}
	return &Region{Rings: []Ring{{
		{min.X, min.Y}, {max.X, min.Y}, {max.X, max.Y}, {min.X, max.Y},
	}}}
}
