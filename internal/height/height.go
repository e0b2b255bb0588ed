// Package height implements the queuing-delay "heights" of §2.2 of the
// paper: the inelastic per-host component of end-to-end latency. Landmark
// heights come from a least-squares solve over pairwise queuing-delay
// residuals (the paper's 3-landmark linear system, generalized to n); the
// target's height and coarse coordinates come from a nonlinear residual
// minimization (Nelder–Mead), mirroring the paper's note that the computed
// coordinates are "relatively high error and not used in the later stages"
// — Octant uses the heights to deflate latency measurements, not the
// coordinates.
package height

import (
	"fmt"
	"math"
	"sort"

	"octant/internal/geo"
	"octant/internal/linalg"
)

// QueuingDelayK returns q = measured RTT − transmission estimate between
// two known positions, clamped at 0: the [a,b] − (a,b) residual of §2.2
// under a calibrated transmission model, transmission ≈ κ × great-circle
// fiber time, where κ ≥ 1 is the typical route inflation
// (EstimateInflation). Footnote 1 of the paper observes that the raw
// residual "might embody some additional transmission delays stemming
// from the use of indirect paths"; removing the typical inflation before
// the height solve keeps the distance-proportional part of the residual
// out of the per-node heights.
func QueuingDelayK(rttMs, kappa float64, a, b geo.Point) float64 {
	q := rttMs - kappa*geo.DistanceToMinLatencyMs(a.DistanceKm(b))
	if q < 0 {
		return 0
	}
	return q
}

// EstimateInflation returns the median ratio of measured RTT to
// great-circle fiber RTT over all landmark pairs further apart than
// minDistKm (short pairs are height-dominated and excluded; default 300 km
// when minDistKm ≤ 0). The result is clamped to [1, 3].
func EstimateInflation(rtt [][]float64, locs []geo.Point, minDistKm float64) float64 {
	if minDistKm <= 0 {
		minDistKm = 300
	}
	var ratios []float64
	for i := range locs {
		for j := i + 1; j < len(locs); j++ {
			d := locs[i].DistanceKm(locs[j])
			if d < minDistKm {
				continue
			}
			base := geo.DistanceToMinLatencyMs(d)
			if base <= 0 || rtt[i][j] <= 0 {
				continue
			}
			ratios = append(ratios, rtt[i][j]/base)
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	sort.Float64s(ratios)
	k := ratios[len(ratios)/2]
	if k < 1 {
		return 1
	}
	if k > 3 {
		return 3
	}
	return k
}

// SolveLandmarks computes per-landmark heights h from the pairwise queuing
// delays q(i,j), minimizing Σ_{i<j} (h_i + h_j − q_ij)² with h clamped
// non-negative. q must be symmetric with q[i][i] ignored; n ≥ 3 landmarks
// are required (the paper's example is exactly n = 3).
//
// The normal equations have the closed form
//
//	(n−2)·h_i + Σ_k h_k = Σ_j q_ij,
//
// which this function solves directly in O(n²).
func SolveLandmarks(q [][]float64) ([]float64, error) {
	n := len(q)
	if n < 3 {
		return nil, fmt.Errorf("height: need ≥ 3 landmarks, have %d", n)
	}
	rowSum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		if len(q[i]) != n {
			return nil, fmt.Errorf("height: q is not square (row %d has %d cols)", i, len(q[i]))
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rowSum[i] += q[i][j]
		}
		total += rowSum[i]
	}
	// Σh = total / (2n−2); h_i = (rowSum_i − Σh) / (n−2).
	sumH := total / float64(2*n-2)
	h := make([]float64, n)
	for i := 0; i < n; i++ {
		h[i] = (rowSum[i] - sumH) / float64(n-2)
		if h[i] < 0 {
			h[i] = 0
		}
	}
	return h, nil
}

// SolveLandmarksQR solves the same system via explicit least squares (QR on
// the n(n−1)/2 × n pair matrix). It exists to cross-check the closed form
// and for tests; SolveLandmarks is the production path.
func SolveLandmarksQR(q [][]float64) ([]float64, error) {
	n := len(q)
	if n < 3 {
		return nil, fmt.Errorf("height: need ≥ 3 landmarks, have %d", n)
	}
	rows := n * (n - 1) / 2
	a := linalg.NewMatrix(rows, n)
	b := make([]float64, rows)
	r := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Set(r, i, 1)
			a.Set(r, j, 1)
			b[r] = q[i][j]
			r++
		}
	}
	h, err := linalg.SolveLeastSquares(a, b)
	if err != nil {
		return nil, err
	}
	for i := range h {
		if h[i] < 0 {
			h[i] = 0
		}
	}
	return h, nil
}

// TargetResult is the outcome of the target-side solve.
type TargetResult struct {
	HeightMs float64   // t′: the target's inelastic delay component
	Coarse   geo.Point // coarse (t_lat, t_long) estimate — high error by design
	Residual float64   // RMS residual of the fit in ms
}

// SolveTargetK fits (t′, t_lat, t_long) minimizing the residual of
//
//	h_i + t′ + κ·(L_i, t) ≈ [L_i, t]   for every landmark i,
//
// where (L_i, t) is the great-circle transmission estimate and κ the
// calibrated transmission inflation (see EstimateInflation). landmarks,
// heights and rttMs must be parallel slices with ≥ 3 entries. Residual
// terms are weighted by proximity (1/(1+rtt)): nearby landmarks see little
// route inflation, so they anchor the height; distant ones mostly carry
// inflation noise.
func SolveTargetK(landmarks []geo.Point, heights, rttMs []float64, kappa float64) (TargetResult, error) {
	n := len(landmarks)
	if n < 3 || len(heights) != n || len(rttMs) != n {
		return TargetResult{}, fmt.Errorf("height: need ≥ 3 parallel landmark entries (have %d/%d/%d)",
			len(landmarks), len(heights), len(rttMs))
	}
	if kappa < 1 {
		kappa = 1
	}
	// Start at the latency-weighted centroid: nearby landmarks dominate.
	var wSum float64
	var latSum, lonSum float64
	// Each landmark's weight and its half of the distance formula, fixed
	// across the objective's evaluations.
	type term struct {
		w  float64
		at geo.Radians
	}
	terms := make([]term, n)
	for i, p := range landmarks {
		w := 1 / (1 + rttMs[i])
		terms[i] = term{w, p.Radians()}
		latSum += p.Lat * w
		lonSum += p.Lon * w
		wSum += w
	}
	start := []float64{1, latSum / wSum, lonSum / wSum} // (t′, lat, lon)

	obj := func(v []float64) float64 {
		tPrime, lat, lon := v[0], v[1], v[2]
		if tPrime < 0 {
			tPrime = 0
		}
		t := geo.Pt(clampF(lat, -89.9, 89.9), wrapLon(lon)).Radians()
		var ss float64
		for i, lm := range terms {
			pred := heights[i] + tPrime + kappa*geo.DistanceToMinLatencyMs(lm.at.DistanceKm(t))
			d := pred - rttMs[i]
			ss += lm.w * d * d
		}
		return ss
	}
	best, fv := linalg.NelderMead(obj, start, &linalg.NelderMeadOpts{MaxIter: 2000, Step: 2, Tol: 1e-10})
	res := TargetResult{
		HeightMs: math.Max(0, best[0]),
		Coarse:   geo.Pt(clampF(best[1], -89.9, 89.9), wrapLon(best[2])),
		Residual: math.Sqrt(fv / wSum),
	}
	return res, nil
}

// AdjustRTT deflates a raw RTT by the heights of both endpoints, yielding a
// better transmission-delay estimate for calibration and constraints
// (§2.2: "each landmark can adjust their latency measurements to more
// accurately approximate the transmission delay component").
func AdjustRTT(rttMs, landmarkHeight, targetHeight float64) float64 {
	adj := rttMs - landmarkHeight - targetHeight
	if adj < 0 {
		return 0
	}
	return adj
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func wrapLon(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon <= -180 {
		lon += 360
	}
	return lon
}
