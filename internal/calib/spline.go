package calib

import (
	"math"
	"sort"
)

// Natural cubic spline approximation of the latency/distance scatter — the
// "Spline approximation" series of Figure 2. The scatter is binned by
// latency, bin means become knots, and a natural cubic spline interpolates
// the knots.

// Spline is a natural cubic spline over strictly increasing knots.
type Spline struct {
	xs, ys []float64
	m      []float64 // second derivatives at knots
}

// NewSpline fits a natural cubic spline through the given knots (sorted by
// x internally; duplicate x collapse to their mean y). It returns nil when
// fewer than 2 distinct knots exist.
func NewSpline(xs, ys []float64) *Spline {
	if len(xs) != len(ys) || len(xs) < 2 {
		return nil
	}
	type knot struct{ x, y float64 }
	ks := make([]knot, len(xs))
	for i := range xs {
		ks[i] = knot{xs[i], ys[i]}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].x < ks[j].x })
	// Collapse duplicate x.
	var ux, uy []float64
	for i := 0; i < len(ks); {
		j := i
		sum := 0.0
		for j < len(ks) && ks[j].x == ks[i].x {
			sum += ks[j].y
			j++
		}
		ux = append(ux, ks[i].x)
		uy = append(uy, sum/float64(j-i))
		i = j
	}
	if len(ux) < 2 {
		return nil
	}
	n := len(ux)
	// Solve the tridiagonal system for natural spline second derivatives.
	m := make([]float64, n)
	if n > 2 {
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		d := make([]float64, n)
		for i := 1; i < n-1; i++ {
			h0 := ux[i] - ux[i-1]
			h1 := ux[i+1] - ux[i]
			a[i] = h0
			b[i] = 2 * (h0 + h1)
			c[i] = h1
			d[i] = 6 * ((uy[i+1]-uy[i])/h1 - (uy[i]-uy[i-1])/h0)
		}
		// Thomas algorithm on interior rows.
		for i := 2; i < n-1; i++ {
			f := a[i] / b[i-1]
			b[i] -= f * c[i-1]
			d[i] -= f * d[i-1]
		}
		for i := n - 2; i >= 1; i-- {
			m[i] = (d[i] - c[i]*m[i+1]) / b[i]
		}
	}
	return &Spline{xs: ux, ys: uy, m: m}
}

// Eval evaluates the spline at x, extrapolating linearly beyond the knots.
func (s *Spline) Eval(x float64) float64 {
	n := len(s.xs)
	if x <= s.xs[0] {
		return s.ys[0] + s.derivAt(0)*(x-s.xs[0])
	}
	if x >= s.xs[n-1] {
		return s.ys[n-1] + s.derivAt(n-1)*(x-s.xs[n-1])
	}
	i := sort.SearchFloat64s(s.xs, x)
	if s.xs[i] == x {
		return s.ys[i]
	}
	i--
	h := s.xs[i+1] - s.xs[i]
	t0 := (s.xs[i+1] - x) / h
	t1 := (x - s.xs[i]) / h
	return t0*s.ys[i] + t1*s.ys[i+1] +
		((t0*t0*t0-t0)*s.m[i]+(t1*t1*t1-t1)*s.m[i+1])*h*h/6
}

// derivAt returns the first derivative at knot i (for linear extrapolation).
func (s *Spline) derivAt(i int) float64 {
	n := len(s.xs)
	switch {
	case i == 0:
		h := s.xs[1] - s.xs[0]
		return (s.ys[1]-s.ys[0])/h - h/6*(2*s.m[0]+s.m[1])
	case i == n-1:
		h := s.xs[n-1] - s.xs[n-2]
		return (s.ys[n-1]-s.ys[n-2])/h + h/6*(s.m[n-2]+2*s.m[n-1])
	default:
		return 0
	}
}

// SplineApproximation bins the calibration scatter into nBins latency bins
// and fits a natural cubic spline through the bin means — the Figure 2
// overlay curve. It returns nil when the scatter is too sparse.
func (c *Calibration) SplineApproximation(nBins int) *Spline {
	if nBins < 2 {
		nBins = 8
	}
	if len(c.Samples) < 2 {
		return nil
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, s := range c.Samples {
		minX = math.Min(minX, s.LatencyMs)
		maxX = math.Max(maxX, s.LatencyMs)
	}
	if maxX <= minX {
		return nil
	}
	sumY := make([]float64, nBins)
	sumX := make([]float64, nBins)
	cnt := make([]int, nBins)
	for _, s := range c.Samples {
		b := int((s.LatencyMs - minX) / (maxX - minX) * float64(nBins))
		if b >= nBins {
			b = nBins - 1
		}
		sumY[b] += s.DistanceKm
		sumX[b] += s.LatencyMs
		cnt[b]++
	}
	var xs, ys []float64
	for b := 0; b < nBins; b++ {
		if cnt[b] == 0 {
			continue
		}
		xs = append(xs, sumX[b]/float64(cnt[b]))
		ys = append(ys, sumY[b]/float64(cnt[b]))
	}
	return NewSpline(xs, ys)
}
