package geo

import "math"

// Vec2 is a point or vector in the projection plane, in kilometres.
type Vec2 struct {
	X, Y float64
}

// V2 is shorthand for Vec2{x, y}.
func V2(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product of v and w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z-component of the cross product v × w.
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// Len returns the Euclidean length of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// Len2 returns the squared length of v.
func (v Vec2) Len2() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return math.Hypot(v.X-w.X, v.Y-w.Y) }

// Normalize returns v scaled to unit length, or the zero vector if v is zero.
func (v Vec2) Normalize() Vec2 {
	l := v.Len()
	if l == 0 {
		return Vec2{}
	}
	return Vec2{v.X / l, v.Y / l}
}

// Perp returns v rotated 90° counter-clockwise.
func (v Vec2) Perp() Vec2 { return Vec2{-v.Y, v.X} }

// Lerp returns the linear interpolation between v and w at parameter t.
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return Vec2{v.X + (w.X-v.X)*t, v.Y + (w.Y-v.Y)*t}
}

// segDistance returns the distance from point p to the segment a-b.
func segDistance(p, a, b Vec2) float64 {
	ab := b.Sub(a)
	l2 := ab.Len2()
	if l2 == 0 {
		return p.Dist(a)
	}
	t := clamp(p.Sub(a).Dot(ab)/l2, 0, 1)
	return p.Dist(a.Add(ab.Scale(t)))
}
