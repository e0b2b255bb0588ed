package height

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"octant/internal/geo"
)

// solveLandmarksQR is SolveLandmarks' oracle: the same system solved
// as least squares over the n(n−1)/2 × n pair matrix A, by Gaussian
// elimination with partial pivoting on the normal equations AᵀA h = Aᵀq.
func solveLandmarksQR(q [][]float64) ([]float64, error) {
	n := len(q)
	if n < 3 {
		return nil, fmt.Errorf("height: need ≥ 3 landmarks, have %d", n)
	}
	m := make([][]float64, n) // [AᵀA | Aᵀq]
	for i := range m {
		m[i] = make([]float64, n+1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m[i][i]++
			m[j][j]++
			m[i][j]++
			m[j][i]++
			m[i][n] += q[i][j]
			m[j][n] += q[i][j]
		}
	}
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(m[r][c]) > math.Abs(m[p][c]) {
				p = r
			}
		}
		m[c], m[p] = m[p], m[c]
		for r := c + 1; r < n; r++ {
			f := m[r][c] / m[c][c]
			for k := c; k <= n; k++ {
				m[r][k] -= f * m[c][k]
			}
		}
	}
	h := make([]float64, n)
	for c := n - 1; c >= 0; c-- {
		s := m[c][n]
		for k := c + 1; k < n; k++ {
			s -= m[c][k] * h[k]
		}
		h[c] = s / m[c][c]
	}
	for i := range h {
		h[i] = max(h[i], 0)
	}
	return h, nil
}

func TestQueuingDelay(t *testing.T) {
	a := geo.Pt(40, -75)
	b := geo.Pt(41, -76)
	base := geo.DistanceToMinLatencyMs(a.DistanceKm(b))
	if got := QueuingDelayK(base+3, 1, a, b); math.Abs(got-3) > 1e-9 {
		t.Errorf("QueuingDelay = %v, want 3", got)
	}
	// Faster-than-light measurement clamps to 0, never negative.
	if got := QueuingDelayK(base-1, 1, a, b); got != 0 {
		t.Errorf("negative queuing delay should clamp: %v", got)
	}
}

func TestSolveLandmarksPaperExample(t *testing.T) {
	// §2.2's exact 3-landmark system: a′=1, b′=2, c′=3 gives
	// q_ab=3, q_ac=4, q_bc=5.
	q := [][]float64{
		{0, 3, 4},
		{3, 0, 5},
		{4, 5, 0},
	}
	h, err := SolveLandmarks(q)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(h[i]-want[i]) > 1e-9 {
			t.Errorf("h[%d] = %v, want %v", i, h[i], want[i])
		}
	}
}

func TestSolveLandmarksMatchesQR(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		n := 3 + rng.IntN(10)
		truth := make([]float64, n)
		for i := range truth {
			truth[i] = rng.Float64() * 4
		}
		q := make([][]float64, n)
		for i := range q {
			q[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := truth[i] + truth[j] + (rng.Float64()-0.5)*0.2
				q[i][j], q[j][i] = v, v
			}
		}
		closed, err1 := SolveLandmarks(q)
		qr, err2 := solveLandmarksQR(q)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range closed {
			if math.Abs(closed[i]-qr[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolveLandmarksRecoversTruth(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	n := 20
	truth := make([]float64, n)
	for i := range truth {
		truth[i] = rng.Float64() * 3
	}
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := truth[i] + truth[j] + (rng.Float64()-0.5)*0.4 // noisy
			q[i][j], q[j][i] = v, v
		}
	}
	h, err := SolveLandmarks(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(h[i]-truth[i]) > 0.3 {
			t.Errorf("h[%d] = %.3f, truth %.3f", i, h[i], truth[i])
		}
	}
}

func TestSolveLandmarksValidation(t *testing.T) {
	if _, err := SolveLandmarks([][]float64{{0, 1}, {1, 0}}); err == nil {
		t.Error("n=2 should error")
	}
	if _, err := SolveLandmarks([][]float64{{0, 1}, {1, 0}, {1}}); err == nil {
		t.Error("ragged q should error")
	}
	if _, err := solveLandmarksQR([][]float64{{0}}); err == nil {
		t.Error("QR n=1 should error")
	}
	// Heights never negative even with absurd inputs.
	q := [][]float64{
		{0, 0, 10},
		{0, 0, 0},
		{10, 0, 0},
	}
	h, err := SolveLandmarks(q)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range h {
		if v < 0 {
			t.Errorf("h[%d] = %v negative", i, v)
		}
	}
}

func TestSolveTargetRecoversPosition(t *testing.T) {
	// Synthetic: landmarks on a wide ring, exact distance-based RTTs plus
	// known heights. Nelder–Mead should land near the true position.
	landmarks := []geo.Point{
		geo.Pt(40.7, -74.0), geo.Pt(41.9, -87.6), geo.Pt(33.7, -84.4),
		geo.Pt(39.7, -105.0), geo.Pt(47.6, -122.3), geo.Pt(34.0, -118.2),
		geo.Pt(29.8, -95.4), geo.Pt(44.98, -93.3),
	}
	heights := []float64{1, 0.5, 2, 1.5, 0.8, 1.2, 0.3, 2.2}
	truth := geo.Pt(38.63, -90.2) // St. Louis
	const tHeight = 1.7
	rtts := make([]float64, len(landmarks))
	for i, l := range landmarks {
		rtts[i] = heights[i] + tHeight + geo.DistanceToMinLatencyMs(l.DistanceKm(truth))
	}
	res, err := SolveTargetK(landmarks, heights, rtts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Coarse.DistanceKm(truth); d > 150 {
		t.Errorf("coarse estimate %.0f km from truth (%v vs %v)", d, res.Coarse, truth)
	}
	if math.Abs(res.HeightMs-tHeight) > 0.5 {
		t.Errorf("target height %.2f, want %.2f", res.HeightMs, tHeight)
	}
	if res.Residual > 0.5 {
		t.Errorf("residual %.3f too high for noiseless input", res.Residual)
	}
}

func TestSolveTargetValidation(t *testing.T) {
	ls := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)}
	if _, err := SolveTargetK(ls, []float64{0, 0}, []float64{1, 1}, 1); err == nil {
		t.Error("n=2 should error")
	}
	ls = append(ls, geo.Pt(2, 2))
	if _, err := SolveTargetK(ls, []float64{0}, []float64{1, 1, 1}, 1); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestAdjustRTT(t *testing.T) {
	if got := AdjustRTT(10, 2, 3); got != 5 {
		t.Errorf("AdjustRTT = %v", got)
	}
	if got := AdjustRTT(4, 3, 3); got != 0 {
		t.Errorf("over-adjustment should clamp to 0, got %v", got)
	}
}
