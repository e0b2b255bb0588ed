package geo

import "math"

// CubicBezier is a cubic Bezier segment in the projection plane. Octant
// represents region boundaries as chains of these (§1–2 of the paper):
// compact, closed under affine transforms, and able to bound non-convex and
// disconnected areas. The computational kernels operate on adaptively
// flattened polylines; FitBeziers converts polylines back into compact
// Bezier chains.
type CubicBezier struct {
	P0, P1, P2, P3 Vec2
}

// Eval returns the curve point at parameter t ∈ [0, 1] (de Casteljau).
func (c CubicBezier) Eval(t float64) Vec2 {
	u := 1 - t
	a := c.P0.Scale(u * u * u)
	b := c.P1.Scale(3 * u * u * t)
	d := c.P2.Scale(3 * u * t * t)
	e := c.P3.Scale(t * t * t)
	return a.Add(b).Add(d).Add(e)
}

// Derivative returns the tangent vector at parameter t.
func (c CubicBezier) Derivative(t float64) Vec2 {
	u := 1 - t
	a := c.P1.Sub(c.P0).Scale(3 * u * u)
	b := c.P2.Sub(c.P1).Scale(6 * u * t)
	d := c.P3.Sub(c.P2).Scale(3 * t * t)
	return a.Add(b).Add(d)
}

// Split subdivides the curve at parameter t into two cubic segments.
func (c CubicBezier) Split(t float64) (CubicBezier, CubicBezier) {
	p01 := c.P0.Lerp(c.P1, t)
	p12 := c.P1.Lerp(c.P2, t)
	p23 := c.P2.Lerp(c.P3, t)
	p012 := p01.Lerp(p12, t)
	p123 := p12.Lerp(p23, t)
	mid := p012.Lerp(p123, t)
	return CubicBezier{c.P0, p01, p012, mid}, CubicBezier{mid, p123, p23, c.P3}
}

// flatEnough reports whether the control polygon deviates from the chord by
// at most tol.
func (c CubicBezier) flatEnough(tol float64) bool {
	d1 := segDistance(c.P1, c.P0, c.P3)
	d2 := segDistance(c.P2, c.P0, c.P3)
	return math.Max(d1, d2) <= tol
}

// Flatten appends a polyline approximation of the curve (excluding P0,
// including P3) to dst, with maximum deviation tol.
func (c CubicBezier) Flatten(tol float64, dst []Vec2) []Vec2 {
	if tol <= 0 {
		tol = 0.1
	}
	return flattenRec(c, tol, dst, 0)
}

func flattenRec(c CubicBezier, tol float64, dst []Vec2, depth int) []Vec2 {
	if depth > 24 || c.flatEnough(tol) {
		return append(dst, c.P3)
	}
	l, r := c.Split(0.5)
	dst = flattenRec(l, tol, dst, depth+1)
	return flattenRec(r, tol, dst, depth+1)
}

// BoundingBox returns the control-polygon bounding box (contains the curve).
func (c CubicBezier) BoundingBox() (min, max Vec2) {
	min = c.P0
	max = c.P0
	for _, p := range []Vec2{c.P1, c.P2, c.P3} {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	return min, max
}

// BezierPath is a chain of cubic segments, closed when the last segment ends
// at the first segment's start.
type BezierPath []CubicBezier

// Flatten converts the path to a polyline ring at tolerance tol.
func (bp BezierPath) Flatten(tol float64) Ring {
	if len(bp) == 0 {
		return nil
	}
	pts := []Vec2{bp[0].P0}
	for _, c := range bp {
		pts = c.Flatten(tol, pts)
	}
	// Closed path: drop the duplicated final point.
	if len(pts) > 1 && pts[0].Dist(pts[len(pts)-1]) < 1e-9 {
		pts = pts[:len(pts)-1]
	}
	return Ring(pts)
}

// FitBeziers fits a closed polyline ring with a chain of cubic Beziers whose
// maximum deviation from the input vertices is at most tol (Schneider's
// least-squares fitting with corner splitting). The result is the compact
// boundary representation used when serializing regions.
//
// The ring is first split at sharp corners (turn angle above ~50°) so each
// smooth piece is fitted independently with polyline-aligned end tangents;
// a smooth ring without corners is split into two halves to avoid the
// degenerate closed-curve fit.
func FitBeziers(ring Ring, tol float64) BezierPath {
	n := len(ring)
	if n < 3 {
		return nil
	}
	if tol <= 0 {
		tol = 0.5
	}
	corners := cornerIndices(ring, 50*math.Pi/180)
	if len(corners) < 2 {
		corners = []int{0, n / 2}
	}
	var out BezierPath
	for i, ci := range corners {
		cj := corners[(i+1)%len(corners)]
		seg := ringSlice(ring, ci, cj)
		seg = dedupePolyline(seg)
		if len(seg) < 2 {
			continue
		}
		tHat1 := seg[1].Sub(seg[0]).Normalize()
		tHat2 := seg[len(seg)-2].Sub(seg[len(seg)-1]).Normalize()
		fitCubicRec(seg, tHat1, tHat2, tol, &out, 0)
	}
	return out
}

// cornerIndices returns the indices of vertices whose exterior turn angle
// exceeds threshold radians.
func cornerIndices(ring Ring, threshold float64) []int {
	n := len(ring)
	var out []int
	for i := 0; i < n; i++ {
		a := ring[(i+n-1)%n]
		b := ring[i]
		c := ring[(i+1)%n]
		v1 := b.Sub(a)
		v2 := c.Sub(b)
		if v1.Len() == 0 || v2.Len() == 0 {
			continue
		}
		turn := math.Abs(math.Atan2(v1.Cross(v2), v1.Dot(v2)))
		if turn > threshold {
			out = append(out, i)
		}
	}
	return out
}

// ringSlice extracts the closed-ring vertex run from index i to index j
// inclusive, wrapping around (i == j yields the whole loop closed back to i).
func ringSlice(ring Ring, i, j int) []Vec2 {
	n := len(ring)
	var out []Vec2
	k := i
	for {
		out = append(out, ring[k])
		if k == j && len(out) > 1 {
			break
		}
		k = (k + 1) % n
		if k == i { // full loop: close it
			out = append(out, ring[i])
			break
		}
	}
	return out
}

// dedupePolyline removes consecutive duplicate points from an open polyline.
func dedupePolyline(pts []Vec2) []Vec2 {
	out := pts[:0:0]
	for _, p := range pts {
		if len(out) == 0 || out[len(out)-1].Dist(p) > 1e-12 {
			out = append(out, p)
		}
	}
	return out
}

func fitCubicRec(pts []Vec2, tHat1, tHat2 Vec2, tol float64, out *BezierPath, depth int) {
	n := len(pts)
	if n == 2 {
		d := pts[1].Dist(pts[0]) / 3
		*out = append(*out, CubicBezier{
			pts[0],
			pts[0].Add(tHat1.Scale(d)),
			pts[1].Add(tHat2.Scale(d)),
			pts[1],
		})
		return
	}
	u := chordLengthParams(pts)
	bez := generateBezier(pts, u, tHat1, tHat2)
	maxErr, splitIdx := maxFitError(pts, bez, u)
	if maxErr <= tol || depth > 24 {
		*out = append(*out, bez)
		return
	}
	// One round of Newton–Raphson reparameterization before splitting.
	if maxErr <= tol*tol*4 {
		u = reparameterize(pts, bez, u)
		bez = generateBezier(pts, u, tHat1, tHat2)
		maxErr, splitIdx = maxFitError(pts, bez, u)
		if maxErr <= tol {
			*out = append(*out, bez)
			return
		}
	}
	if splitIdx <= 0 || splitIdx >= n-1 {
		splitIdx = n / 2
	}
	centerTangent := pts[splitIdx-1].Sub(pts[splitIdx+1]).Normalize()
	fitCubicRec(pts[:splitIdx+1], tHat1, centerTangent, tol, out, depth+1)
	fitCubicRec(pts[splitIdx:], centerTangent.Scale(-1), tHat2, tol, out, depth+1)
}

func chordLengthParams(pts []Vec2) []float64 {
	u := make([]float64, len(pts))
	for i := 1; i < len(pts); i++ {
		u[i] = u[i-1] + pts[i].Dist(pts[i-1])
	}
	total := u[len(u)-1]
	if total == 0 {
		total = 1
	}
	for i := range u {
		u[i] /= total
	}
	return u
}

func generateBezier(pts []Vec2, u []float64, tHat1, tHat2 Vec2) CubicBezier {
	n := len(pts)
	first, last := pts[0], pts[n-1]
	// Least squares for the two tangent magnitudes (standard Schneider).
	var c00, c01, c11, x0, x1 float64
	for i := 0; i < n; i++ {
		t := u[i]
		b0 := (1 - t) * (1 - t) * (1 - t)
		b1 := 3 * t * (1 - t) * (1 - t)
		b2 := 3 * t * t * (1 - t)
		b3 := t * t * t
		a1 := tHat1.Scale(b1)
		a2 := tHat2.Scale(b2)
		c00 += a1.Dot(a1)
		c01 += a1.Dot(a2)
		c11 += a2.Dot(a2)
		tmp := pts[i].Sub(first.Scale(b0 + b1)).Sub(last.Scale(b2 + b3))
		x0 += a1.Dot(tmp)
		x1 += a2.Dot(tmp)
	}
	det := c00*c11 - c01*c01
	var alpha1, alpha2 float64
	if math.Abs(det) > 1e-12 {
		alpha1 = (x0*c11 - x1*c01) / det
		alpha2 = (c00*x1 - c01*x0) / det
	}
	segLen := first.Dist(last)
	eps := 1e-6 * segLen
	if alpha1 < eps || alpha2 < eps {
		alpha1 = segLen / 3
		alpha2 = segLen / 3
	}
	return CubicBezier{
		first,
		first.Add(tHat1.Scale(alpha1)),
		last.Add(tHat2.Scale(alpha2)),
		last,
	}
}

func maxFitError(pts []Vec2, bez CubicBezier, u []float64) (maxErr float64, idx int) {
	for i := 1; i < len(pts)-1; i++ {
		d := bez.Eval(u[i]).Dist(pts[i])
		if d > maxErr {
			maxErr = d
			idx = i
		}
	}
	return maxErr, idx
}

func reparameterize(pts []Vec2, bez CubicBezier, u []float64) []float64 {
	out := make([]float64, len(u))
	for i := range u {
		out[i] = newtonRaphsonRoot(bez, pts[i], u[i])
	}
	return out
}

func newtonRaphsonRoot(bez CubicBezier, p Vec2, u float64) float64 {
	d := bez.Eval(u).Sub(p)
	d1 := bez.Derivative(u)
	// Second derivative of a cubic.
	d2 := bez.P2.Sub(bez.P1.Scale(2)).Add(bez.P0).Scale(6 * (1 - u)).
		Add(bez.P3.Sub(bez.P2.Scale(2)).Add(bez.P1).Scale(6 * u))
	num := d.Dot(d1)
	den := d1.Dot(d1) + d.Dot(d2)
	if math.Abs(den) < 1e-12 {
		return u
	}
	return clamp(u-num/den, 0, 1)
}

// BezierBoundary returns the region's boundary as one Bezier path per ring,
// fitted at tolerance tol (km).
func (r *Region) BezierBoundary(tol float64) []BezierPath {
	if r == nil {
		return nil
	}
	out := make([]BezierPath, 0, len(r.Rings))
	for _, ring := range r.Rings {
		if bp := FitBeziers(ring, tol); len(bp) > 0 {
			out = append(out, bp)
		}
	}
	return out
}
