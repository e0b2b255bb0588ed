// Package linalg is the Nelder–Mead simplex minimizer the baselines' and
// tests' coordinate fits use. It has no dependencies beyond the standard
// library.
package linalg

import (
	"math"
	"sort"
)

// NelderMeadOpts configures the simplex minimizer.
type NelderMeadOpts struct {
	MaxIter int     // maximum iterations (default 400)
	Tol     float64 // convergence tolerance on simplex f-spread (default 1e-9)
	Step    float64 // initial simplex step per coordinate (default 1)
}

// nmVertex is one simplex vertex with its cached objective value.
type nmVertex struct {
	x []float64
	f float64
}

// nmSimplex sorts vertices by objective value. A concrete sort.Interface
// keeps the per-iteration sort allocation-free; sort.Sort and sort.Slice
// instantiate the same pdqsort template, so the swap sequence — and with
// it the tie-ordering of equal-valued vertices — is identical to the
// sort.Slice formulation this replaced.
type nmSimplex []nmVertex

func (s nmSimplex) Len() int           { return len(s) }
func (s nmSimplex) Less(i, j int) bool { return s[i].f < s[j].f }
func (s nmSimplex) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// NelderMead minimizes f starting from x0 using the Nelder–Mead downhill
// simplex method (reflection/expansion/contraction/shrink with the standard
// coefficients). It returns the best point found and its value. The method
// is derivative-free, matching the paper's need to minimize the nonlinear
// residual over (t′, t_long, t_lat) in §2.2.
func NelderMead(f func([]float64) float64, x0 []float64, opts *NelderMeadOpts) ([]float64, float64) {
	n := len(x0)
	if n == 0 {
		return nil, f(nil)
	}
	o := NelderMeadOpts{MaxIter: 400, Tol: 1e-9, Step: 1}
	if opts != nil {
		if opts.MaxIter > 0 {
			o.MaxIter = opts.MaxIter
		}
		if opts.Tol > 0 {
			o.Tol = opts.Tol
		}
		if opts.Step != 0 {
			o.Step = opts.Step
		}
	}
	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	simplex := make(nmSimplex, n+1)
	simplex[0] = nmVertex{append([]float64(nil), x0...), f(x0)}
	for i := 1; i <= n; i++ {
		x := append([]float64(nil), x0...)
		x[i-1] += o.Step
		simplex[i] = nmVertex{x, f(x)}
	}
	centroid := make([]float64, n)
	// Two scratch buffers cycle through the reflection/expansion/
	// contraction candidates. A candidate adopted into the simplex takes
	// the evicted worst vertex's buffer with it, so the buffer count stays
	// fixed at two for the whole run — every candidate coordinate is fully
	// overwritten before use, which keeps the arithmetic bit-identical to
	// the make-per-iteration formulation this replaced.
	bufA := make([]float64, n)
	bufB := make([]float64, n)
	// Box the simplex into sort.Interface once: the conversion inside the
	// loop would otherwise heap-allocate a slice header per iteration.
	var byF sort.Interface = simplex
	for iter := 0; iter < o.MaxIter; iter++ {
		sort.Sort(byF)
		if math.Abs(simplex[n].f-simplex[0].f) < o.Tol {
			break
		}
		// Centroid of all but worst.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				centroid[j] += simplex[i].x[j]
			}
		}
		for j := range centroid {
			centroid[j] /= float64(n)
		}
		worst := simplex[n]
		refl := bufA
		for j := 0; j < n; j++ {
			refl[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
		}
		fr := f(refl)
		switch {
		case fr < simplex[0].f:
			exp := bufB
			for j := 0; j < n; j++ {
				exp[j] = centroid[j] + gamma*(refl[j]-centroid[j])
			}
			if fe := f(exp); fe < fr {
				simplex[n] = nmVertex{exp, fe}
				bufB = worst.x
			} else {
				simplex[n] = nmVertex{refl, fr}
				bufA = worst.x
			}
		case fr < simplex[n-1].f:
			simplex[n] = nmVertex{refl, fr}
			bufA = worst.x
		default:
			contr := bufB
			for j := 0; j < n; j++ {
				contr[j] = centroid[j] + rho*(worst.x[j]-centroid[j])
			}
			if fc := f(contr); fc < worst.f {
				simplex[n] = nmVertex{contr, fc}
				bufB = worst.x
			} else {
				// Shrink toward best.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = simplex[0].x[j] + sigma*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = f(simplex[i].x)
				}
			}
		}
	}
	sort.Sort(byF)
	return simplex[0].x, simplex[0].f
}
