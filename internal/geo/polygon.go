package geo

import "math"

// Ring is a closed polygonal loop in the projection plane. The closing edge
// from the last vertex back to the first is implicit. Counter-clockwise
// rings enclose area positively (outer boundaries); clockwise rings are
// holes.
type Ring []Vec2

// signedArea returns the signed area of the ring via the shoelace formula
// (positive for counter-clockwise).
func signedArea(r []Vec2) float64 {
	n := len(r)
	if n < 3 {
		return 0
	}
	var a float64
	p := r[0]
	for _, q := range r[1:] {
		a += p.X*q.Y - q.X*p.Y
		p = q
	}
	return (a + (p.X*r[0].Y - r[0].X*p.Y)) / 2
}

// Area returns the absolute area of the ring in km².
func (r Ring) Area() float64 { return math.Abs(signedArea(r)) }

// SignedArea returns the signed area (positive if counter-clockwise).
func (r Ring) SignedArea() float64 { return signedArea(r) }

// IsCCW reports whether the ring winds counter-clockwise.
func (r Ring) IsCCW() bool { return signedArea(r) > 0 }

// Centroid returns the area centroid of the ring. For degenerate rings the
// vertex mean is returned.
func (r Ring) Centroid() Vec2 {
	a := signedArea(r)
	if math.Abs(a) < 1e-12 {
		var c Vec2
		for _, v := range r {
			c = c.Add(v)
		}
		if len(r) > 0 {
			c = c.Scale(1 / float64(len(r)))
		}
		return c
	}
	var cx, cy float64
	n := len(r)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		f := r[i].X*r[j].Y - r[j].X*r[i].Y
		cx += (r[i].X + r[j].X) * f
		cy += (r[i].Y + r[j].Y) * f
	}
	return Vec2{cx / (6 * a), cy / (6 * a)}
}

// Contains reports whether p lies strictly inside the ring, using the
// non-zero winding rule with an even-odd fallback for points on edges.
func (r Ring) Contains(p Vec2) bool {
	return windingNumber(r, p) != 0
}

// windingNumber computes the winding number of ring r around p.
func windingNumber(r []Vec2, p Vec2) int {
	n := len(r)
	if n < 3 {
		return 0
	}
	wn := 0
	for i := 0; i < n; i++ {
		a := r[i]
		b := r[(i+1)%n]
		if a.Y <= p.Y {
			if b.Y > p.Y && isLeft(a, b, p) > 0 {
				wn++
			}
		} else {
			if b.Y <= p.Y && isLeft(a, b, p) < 0 {
				wn--
			}
		}
	}
	return wn
}

// isLeft returns >0 if p is left of the directed line a→b, <0 right, 0 on.
func isLeft(a, b, p Vec2) float64 {
	return (b.X-a.X)*(p.Y-a.Y) - (p.X-a.X)*(b.Y-a.Y)
}

// BoundingBox returns the axis-aligned bounding box of the ring.
func (r Ring) BoundingBox() (min, max Vec2) {
	if len(r) == 0 {
		return Vec2{}, Vec2{}
	}
	min, max = r[0], r[0]
	for _, v := range r[1:] {
		min.X = math.Min(min.X, v.X)
		min.Y = math.Min(min.Y, v.Y)
		max.X = math.Max(max.X, v.X)
		max.Y = math.Max(max.Y, v.Y)
	}
	return min, max
}

// DistanceTo returns the minimum distance from p to the ring boundary.
func (r Ring) DistanceTo(p Vec2) float64 {
	n := len(r)
	if n == 0 {
		return math.Inf(1)
	}
	if n == 1 {
		return p.Dist(r[0])
	}
	d := math.Inf(1)
	for i := 0; i < n; i++ {
		d = math.Min(d, segDistance(p, r[i], r[(i+1)%n]))
	}
	return d
}

// MaxDistanceTo returns the maximum distance from p to any vertex of the
// ring. Because Euclidean distance is convex, the maximum over the ring's
// enclosed (convex hull of) area is attained at a vertex.
func (r Ring) MaxDistanceTo(p Vec2) float64 {
	var d float64
	for _, v := range r {
		if dd := p.Dist(v); dd > d {
			d = dd
		}
	}
	return d
}

// Clone returns a deep copy of the ring.
func (r Ring) Clone() Ring {
	out := make(Ring, len(r))
	copy(out, r)
	return out
}

// Simplify returns a copy of the ring with vertices closer than tol to the
// line through their neighbours removed (Ramer–Douglas–Peucker applied to the
// closed loop, split at the two farthest-apart vertices).
func (r Ring) Simplify(tol float64) Ring {
	n := len(r)
	if n <= 4 || tol <= 0 {
		return r.Clone()
	}
	// Split at index 0 and the vertex farthest from vertex 0.
	far := 0
	var fd float64
	for i := 1; i < n; i++ {
		if d := r[0].Dist(r[i]); d > fd {
			fd, far = d, i
		}
	}
	if far == 0 {
		return r.Clone()
	}
	a := rdp(append([]Vec2{}, r[:far+1]...), tol)
	closed := append([]Vec2{}, r[far:]...)
	closed = append(closed, r[0])
	b := rdp(closed, tol)
	out := make(Ring, 0, len(a)+len(b))
	out = append(out, a...)
	if len(b) > 2 {
		out = append(out, b[1:len(b)-1]...)
	}
	if len(out) < 3 {
		return r.Clone()
	}
	return out
}

// rdp is the Ramer–Douglas–Peucker polyline simplification.
func rdp(pts []Vec2, tol float64) []Vec2 {
	if len(pts) < 3 {
		return pts
	}
	var maxD float64
	idx := 0
	a, b := pts[0], pts[len(pts)-1]
	for i := 1; i < len(pts)-1; i++ {
		if d := segDistance(pts[i], a, b); d > maxD {
			maxD, idx = d, i
		}
	}
	if maxD <= tol {
		return []Vec2{a, b}
	}
	left := rdp(pts[:idx+1], tol)
	right := rdp(pts[idx:], tol)
	return append(left[:len(left)-1], right...)
}
