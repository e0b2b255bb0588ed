// Package height implements the queuing-delay "heights" of §2.2 of the
// paper: the inelastic per-host component of end-to-end latency. Landmark
// heights come from a least-squares solve over pairwise queuing-delay
// residuals (the paper's 3-landmark linear system, generalized to n); the
// target's height and coarse coordinates come from a nonlinear weighted
// least-squares fit (Levenberg–Marquardt on the analytic Jacobian, a handful
// of iterations), mirroring the paper's note that the computed coordinates
// are "relatively high error and not used in the later stages" — Octant uses
// the heights to deflate latency measurements, not the coordinates.
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
//
// The fit is Levenberg–Marquardt (descend) from t′ = 1 at the
// latency-weighted centroid and from beside the nearest landmark. The arcs
// make the objective non-convex, so it is probed around the better end (t′
// in closed form) on a 5×5 lattice 1° apart and four points 0.5° out, and
// descends again from each lattice point under its four neighbours and each
// half-step point under the end; the lowest end wins.
func SolveTargetK(landmarks []geo.Point, heights, rttMs []float64, kappa float64) (TargetResult, error) {
	n := len(landmarks)
	if n < 3 || len(heights) != n || len(rttMs) != n {
		return TargetResult{}, fmt.Errorf("height: need ≥ 3 parallel landmark entries (have %d/%d/%d)",
			len(landmarks), len(heights), len(rttMs))
	}
	f := targetFit{terms: make([]fitTerm, n), msPerRad: max(kappa, 1) * geo.DistanceToMinLatencyMs(geo.EarthRadiusKm)}
	var latSum, lonSum float64
	near := 0
	for i, p := range landmarks {
		w := 1 / (1 + rttMs[i])
		f.terms[i] = fitTerm{w, heights[i] - rttMs[i], geo.UnitVec(p)}
		latSum, lonSum, f.wSum = latSum+p.Lat*w, lonSum+p.Lon*w, f.wSum+w
		if rttMs[i] < rttMs[near] {
			near = i
		}
	}
	x, ss := f.descend([3]float64{1, clampF(latSum/f.wSum, -maxLat, maxLat), lonSum / f.wSum})
	try := func(p [3]float64) {
		if y, yss := f.descend(p); yss < ss {
			x, ss = y, yss
		}
	}
	p, _ := f.at(landmarks[near].Lat+0.01, landmarks[near].Lon+0.01)
	try(p)
	lattice, at := [5][5]float64{}, [5][5][3]float64{}
	c := x
	for i := range lattice {
		for j := range lattice[i] {
			at[i][j], lattice[i][j] = f.at(c[1]+float64(i-2), c[2]+float64(j-2))
		}
	}
	for i := range lattice {
		for j, v := range lattice[i] {
			if (i != 2 || j != 2) && (i == 0 || lattice[i-1][j] >= v) && (i == 4 || lattice[i+1][j] >= v) &&
				(j == 0 || lattice[i][j-1] >= v) && (j == 4 || lattice[i][j+1] >= v) {
				try(at[i][j])
			}
		}
	}
	for _, o := range [4][2]float64{{0.5, 0}, {-0.5, 0}, {0, 0.5}, {0, -0.5}} {
		if p, v := f.at(c[1]+o[0], c[2]+o[1]); v < ss {
			try(p)
		}
	}
	// On a landmark, where σ has no derivative, a descent can stop short of t′'s optimum.
	if p, v := f.at(x[1], x[2]); v < ss {
		x, ss = p, v
	}
	return TargetResult{HeightMs: x[0], Coarse: geo.Pt(x[1], wrapLon(x[2])), Residual: math.Sqrt(ss / f.wSum)}, nil
}

const maxLat = 89.9 // bounds the fitted latitude, in degrees

// fitTerm is a landmark's weight, residual at t′ = 0 and distance 0, and position.
type fitTerm struct {
	w, r0 float64
	at    geo.Vec3
}

// targetFit is SolveTargetK's objective Σ w·r² over x = (t′ ms, lat °,
// lon °), where r = r0 + t′ + msPerRad·σ and σ is the arc to the landmark.
type targetFit struct {
	terms          []fitTerm
	wSum, msPerRad float64
}

// eval returns the objective at x, half its gradient g = JᵀWr, half its
// Hessian h and the diagonal d of JᵀWJ. h keeps Σ w·r·∂²r: against residuals
// of several milliseconds the arcs' curvature makes Gauss–Newton zig-zag.
func (f *targetFit) eval(x [3]float64) (ss float64, h [3][3]float64, g, d [3]float64) {
	fr := geo.NewFrame(geo.Pt(x[1], x[2]))
	cosLat, sinLat := fr.N.Z, fr.U.Z
	const rad = math.Pi / 180
	for _, t := range f.terms {
		e, n, u := t.at.Dot(fr.E), t.at.Dot(fr.N), t.at.Dot(fr.U)
		rho := math.Sqrt(e*e + n*n) // sin σ
		r := t.r0 + x[0] + f.msPerRad*math.Atan2(rho, u)
		j := [3]float64{1, 0, 0}
		ss += t.w * r * r
		if rho > 0 {
			// c1, c2: cos σ's derivatives per radian; σ's follow from acos.
			c1 := [2]float64{n, cosLat * e}
			c2 := [2][2]float64{{-u, -sinLat * e}, {-sinLat * e, cosLat * (sinLat*n - cosLat*u)}}
			k := t.w * r * f.msPerRad * rad * rad
			for p := range c1 {
				j[p+1] = -f.msPerRad * rad * c1[p] / rho
				for q := range c1 {
					h[p+1][q+1] += k * (-c2[p][q]/rho - u*c1[p]*c1[q]/(rho*rho*rho))
				}
			}
		}
		for p := range j {
			g[p] += t.w * r * j[p]
			d[p] += t.w * j[p] * j[p]
			for q := range j {
				h[p][q] += t.w * j[p] * j[q]
			}
		}
	}
	return ss, h, g, d
}

// at returns (t′, lat, lon) with lat clamped and t′ at its optimum there,
// max(0, −Σ w·(r0 + msPerRad·σ)/Σ w), and the objective at it.
func (f *targetFit) at(lat, lon float64) (x [3]float64, ss float64) {
	x[1], x[2] = clampF(lat, -maxLat, maxLat), lon
	fr := geo.NewFrame(geo.Pt(x[1], x[2]))
	var s1, s2 float64 // Σ w·a and Σ w·a², a = r0 + msPerRad·σ
	for _, t := range f.terms {
		e, n := t.at.Dot(fr.E), t.at.Dot(fr.N)
		a := t.r0 + f.msPerRad*math.Atan2(math.Sqrt(e*e+n*n), t.at.Dot(fr.U))
		s1, s2 = s1+t.w*a, s2+t.w*a*a
	}
	x[0] = math.Max(0, -s1/f.wSum)
	return x, math.Max(0, s2+x[0]*(2*s1+x[0]*f.wSum))
}

// descend runs Levenberg–Marquardt from x, (h + μ·diag(JᵀWJ))·δ = −g over the
// parameters the gradient does not hold on a bound (t′ ≥ 0, |lat| ≤ maxLat),
// μ set by the gain ratio of a step's decrease to the model's (Nielsen), until
// a step no longer moves x or lowers the objective by 1e-14 of itself.
func (f *targetFit) descend(x [3]float64) ([3]float64, float64) {
	lo, hi := [3]float64{0, -maxLat, math.Inf(-1)}, [3]float64{math.Inf(1), maxLat, math.Inf(1)}
	ss, h, g, d := f.eval(x)
	for iter, mu := 0, 1e-3; iter < 100 && mu < 1e12; iter++ {
		m, b := h, [3]float64{-g[0], -g[1], -g[2]}
		for p := range m {
			if (x[p] <= lo[p] && g[p] > 0) || (x[p] >= hi[p] && g[p] < 0) {
				m[p], m[0][p], m[1][p], m[2][p], b[p] = [3]float64{}, 0, 0, 0, 0
				m[p][p] = 1
			} else {
				m[p][p] += mu * (d[p] + 1e-12*(d[0]+d[1]+d[2]))
			}
		}
		step, ok := solve3(m, b)
		if !ok { // h is not positive definite here: damp harder
			mu *= 8
			continue
		}
		var next [3]float64
		for p := range next {
			next[p] = clampF(x[p]+step[p], lo[p], hi[p])
		}
		if next == x {
			break
		}
		ssNext, hNext, gNext, dNext := f.eval(next)
		if !(ssNext < ss) { // rejected
			mu *= 8
			continue
		}
		z := 1.0 // 2·gain − 1, the promise 2·gᵀδ + δᵀhδ below ss
		if pred := -2*dot3(g, sub3(next, x)) - quad3(h, sub3(next, x)); pred > 0 {
			z = 2*(ss-ssNext)/pred - 1
		}
		done := ss-ssNext <= 1e-14*ss
		x, ss, h, g, d = next, ssNext, hNext, gNext, dNext
		if mu = math.Max(mu*math.Max(1.0/3, 1-z*z*z), 1e-9); done {
			break
		}
	}
	return x, ss
}

func sub3(a, b [3]float64) [3]float64 { return [3]float64{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }
func dot3(a, b [3]float64) float64    { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// quad3 is vᵀmv.
func quad3(m [3][3]float64, v [3]float64) float64 {
	return dot3(v, [3]float64{dot3(m[0], v), dot3(m[1], v), dot3(m[2], v)})
}

// solve3 solves m·x = b for a symmetric m by its adjugate; ok is false
// unless m is positive definite (its leading minors positive).
func solve3(m [3][3]float64, b [3]float64) (x [3]float64, ok bool) {
	c00, c11, c22 := m[1][1]*m[2][2]-m[1][2]*m[1][2], m[0][0]*m[2][2]-m[0][2]*m[0][2], m[0][0]*m[1][1]-m[0][1]*m[0][1]
	c01, c02, c12 := m[0][2]*m[1][2]-m[0][1]*m[2][2], m[0][1]*m[1][2]-m[0][2]*m[1][1], m[0][1]*m[0][2]-m[0][0]*m[1][2]
	det := m[0][0]*c00 + m[0][1]*c01 + m[0][2]*c02
	if !(m[0][0] > 0 && c22 > 0 && det > 0) {
		return x, false
	}
	return [3]float64{
		(c00*b[0] + c01*b[1] + c02*b[2]) / det,
		(c01*b[0] + c11*b[1] + c12*b[2]) / det,
		(c02*b[0] + c12*b[1] + c22*b[2]) / det,
	}, true
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
