// Package hull computes planar convex hulls and their upper/lower facets.
// Octant's calibration step (§2.1 of the paper) builds, per landmark, the
// convex hull of the (latency, distance) scatter of its peers; the upper
// facet chain becomes the positive-constraint bound R_L(d) and the lower
// facet chain the negative-constraint bound r_L(d).
package hull

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// P is a 2-D point (x is typically latency in ms, y distance in km).
type P struct {
	X, Y float64
}

// cross returns the z of (b−a) × (c−a).
func cross(a, b, c P) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// Convex returns the convex hull of pts in counter-clockwise order using
// Andrew's monotone chain. Collinear boundary points are dropped. Inputs of
// fewer than 3 distinct points return the distinct points sorted by (x, y).
func Convex(pts []P) []P {
	n := len(pts)
	if n == 0 {
		return nil
	}
	sorted := slices.Clone(pts)
	slices.SortFunc(sorted, byXY)
	// Dedupe.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) < 3 {
		return uniq
	}
	lower := make([]P, 0, len(uniq))
	for _, p := range uniq {
		for len(lower) >= 2 && cross(lower[len(lower)-2], lower[len(lower)-1], p) <= 0 {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	upper := make([]P, 0, len(uniq))
	for i := len(uniq) - 1; i >= 0; i-- {
		p := uniq[i]
		for len(upper) >= 2 && cross(upper[len(upper)-2], upper[len(upper)-1], p) <= 0 {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	return append(lower[:len(lower)-1], upper[:len(upper)-1]...)
}

// byXY orders points by x, then y.
func byXY(a, b P) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	return cmp.Compare(a.Y, b.Y)
}

// Facets returns the upper and lower hull chains of pts from the leftmost
// to the rightmost point, sorted by increasing x. Evaluated as functions of
// x they are the tightest concave upper and convex lower bounds on the
// scatter. Both come from one sort by (x, y): of the points sharing an x,
// the upper chain keeps the last (the highest) and the lower chain the
// first (the lowest).
func Facets(pts []P) (upper, lower []P) {
	if len(pts) == 0 {
		return nil, nil
	}
	sorted := slices.Clone(pts)
	slices.SortFunc(sorted, byXY)
	upper, lower = make([]P, 0, len(sorted)), make([]P, 0, len(sorted))
	for i, p := range sorted {
		if i+1 == len(sorted) || sorted[i+1].X != p.X {
			upper = append(upper, p)
		}
		if i == 0 || sorted[i-1].X != p.X {
			lower = append(lower, p)
		}
	}
	return monotoneChain(upper, true), monotoneChain(lower, false)
}

// monotoneChain reduces pts, at most one per x and ascending in x, to its
// upper or lower hull chain in place.
func monotoneChain(pts []P, upper bool) []P {
	chain := pts[:0]
	for _, p := range pts {
		for len(chain) >= 2 {
			c := cross(chain[len(chain)-2], chain[len(chain)-1], p)
			if (upper && c >= 0) || (!upper && c <= 0) {
				chain = chain[:len(chain)-1]
				continue
			}
			break
		}
		chain = append(chain, p)
	}
	return chain
}

// Chain is a piecewise-linear function defined by hull facet vertices with
// strictly increasing x. Outside the vertex range it extends with the
// nearest segment's slope unless overridden by the caller.
type Chain []P

// Eval evaluates the chain at x by linear interpolation. Beyond the ends it
// extrapolates along the terminal segments (a single-point chain is
// constant).
func (c Chain) Eval(x float64) float64 {
	n := len(c)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return c[0].Y
	}
	if x <= c[0].X {
		return extrapolate(c[0], c[1], x)
	}
	if x >= c[n-1].X {
		return extrapolate(c[n-2], c[n-1], x)
	}
	i := sort.Search(n, func(i int) bool { return c[i].X >= x })
	if c[i].X == x {
		return c[i].Y
	}
	return extrapolate(c[i-1], c[i], x)
}

func extrapolate(a, b P, x float64) float64 {
	if b.X == a.X {
		return (a.Y + b.Y) / 2
	}
	t := (x - a.X) / (b.X - a.X)
	return a.Y + t*(b.Y-a.Y)
}

// TruncateRight returns the sub-chain with x ≤ cutoff, always keeping at
// least one vertex (the leftmost).
func (c Chain) TruncateRight(cutoff float64) Chain {
	if len(c) == 0 {
		return nil
	}
	out := Chain{}
	for _, p := range c {
		if p.X <= cutoff {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = Chain{c[0]}
	}
	return out
}
