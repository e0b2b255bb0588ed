package geo

import "math"

// BoolOpts configures boolean operations.
type BoolOpts struct {
	// CellKm is the raster resolution. ≤0 chooses automatically from the
	// box the result can occupy (≈1/400 of its diagonal, clamped to
	// [0.2km, 25km]).
	CellKm float64
}

// Intersect returns a ∩ b.
func Intersect(a, b *Region, opts *BoolOpts) *Region {
	return rasterBool(a, b, opts, func(x, y bool) bool { return x && y })
}

// Union returns a ∪ b.
func Union(a, b *Region, opts *BoolOpts) *Region {
	return rasterBool(a, b, opts, func(x, y bool) bool { return x || y })
}

// Subtract returns a \ b.
func Subtract(a, b *Region, opts *BoolOpts) *Region {
	return rasterBool(a, b, opts, func(x, y bool) bool { return x && !y })
}

// Buffer morphologically grows (d > 0) or shrinks (d < 0) the region by
// |d| km: the dilation is the Minkowski sum with a disk of radius d — the
// "union of all circles of radius d at all points inside β" construction the
// paper uses for positive constraints from secondary landmarks — and the
// erosion is its dual used for negative constraints.
//
// The implementation thresholds the Euclidean distance field of the region
// on a raster: robust for any topology. cellKm ≤ 0 picks a resolution
// proportional to the buffered extent.
func Buffer(r *Region, d float64, cellKm float64) *Region {
	if r.IsEmpty() {
		return EmptyRegion()
	}
	if d == 0 {
		return r.Clone()
	}
	min, max, _ := r.BoundingBox()
	grow := math.Max(d, 0) + 1
	min = Vec2{min.X - grow - 2, min.Y - grow - 2}
	max = Vec2{max.X + grow + 2, max.Y + grow + 2}
	if cellKm <= 0 {
		diag := max.Sub(min).Len()
		cellKm = clamp(diag/400, 0.2, 25)
		cellKm = math.Min(cellKm, math.Abs(d)/3)
		cellKm = math.Max(cellKm, 0.05)
	}
	g := NewGrid(min, max, cellKm)
	inside := g.RasterizeRegion(r)
	out := make([]bool, len(inside))
	any := false
	if d > 0 {
		// Dilation: cell is in the result if inside, or within d of the
		// boundary.
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				i := y*g.W + x
				if inside[i] {
					out[i] = true
					any = true
					continue
				}
				p := g.CellCenter(x, y)
				if distToRings(r, p) <= d {
					out[i] = true
					any = true
				}
			}
		}
	} else {
		// Erosion: keep cells strictly deeper than |d| from the boundary.
		dd := -d
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				i := y*g.W + x
				if !inside[i] {
					continue
				}
				p := g.CellCenter(x, y)
				if distToRings(r, p) >= dd {
					out[i] = true
					any = true
				}
			}
		}
	}
	if !any {
		return EmptyRegion()
	}
	return g.traceBoundary(out)
}

// distToRings is the unsigned distance from p to the nearest ring boundary.
func distToRings(r *Region, p Vec2) float64 {
	d := math.Inf(1)
	for _, ring := range r.Rings {
		d = math.Min(d, ring.DistanceTo(p))
	}
	return d
}
