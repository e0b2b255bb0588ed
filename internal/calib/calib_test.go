package calib

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"octant/internal/geo"
)

// syntheticScatter builds a latency/distance scatter with distance roughly
// 60–95% of the speed-of-light bound (an efficiency band, like Figure 2).
func syntheticScatter(seed uint64, n int) []Sample {
	rng := rand.New(rand.NewPCG(seed, 77))
	out := make([]Sample, n)
	for i := range out {
		lat := 2 + rng.Float64()*90
		eff := 0.60 + rng.Float64()*0.35
		out[i] = Sample{LatencyMs: lat, DistanceKm: geo.LatencyToMaxDistanceKm(lat) * eff}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("empty samples should error")
	}
	if _, err := New([]Sample{{1, 100}}, Options{}); err == nil {
		t.Error("single sample should error")
	}
	if _, err := New([]Sample{{1, 100}, {2, 150}}, Options{}); err != nil {
		t.Errorf("two samples should calibrate: %v", err)
	}
}

// TestNewRefusesImpossibleInput: what a survey snapshot can carry but no
// measurement can produce is refused, and the limits themselves are not.
func TestNewRefusesImpossibleInput(t *testing.T) {
	ok := Sample{LatencyMs: 2, DistanceKm: 150}
	for _, p := range []float64{-5, 150, 1e308, math.NaN(), math.Inf(1)} {
		if _, err := New([]Sample{{1, 100}, ok}, Options{CutoffPercentile: p}); err == nil {
			t.Errorf("cutoff percentile %v accepted", p)
		}
	}
	for _, s := range []Sample{
		{-1, 100}, {math.NaN(), 100}, {math.Inf(1), 100}, {math.Inf(-1), 100},
		{1, -1}, {1, math.NaN()}, {1, math.Inf(1)}, {1, 1e300}, {1, math.Nextafter(math.Pi*geo.EarthRadiusKm, math.Inf(1))},
	} {
		if _, err := New([]Sample{s, ok}, Options{}); err == nil {
			t.Errorf("sample %+v accepted", s)
		}
	}
	antipode := geo.Pt(0, 0).DistanceKm(geo.Pt(0, 180))
	if _, err := New([]Sample{{0, 0}, {300, antipode}, ok}, Options{CutoffPercentile: 100}); err != nil {
		t.Errorf("zero latency, an antipodal distance (%v km) and a 100th-percentile cutoff refused: %v", antipode, err)
	}
}

func TestBandsBracketSamples(t *testing.T) {
	samples := syntheticScatter(1, 60)
	c, err := New(samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		lo, hi := c.Band(s.LatencyMs)
		if s.DistanceKm < lo-1e-6 || s.DistanceKm > hi+1e-6 {
			// Samples beyond ρ may legitimately escape the truncated
			// bounds only on the low side (r is held constant).
			if s.LatencyMs <= c.Rho() {
				t.Errorf("sample (%.1f ms, %.0f km) outside band [%.0f, %.0f]",
					s.LatencyMs, s.DistanceKm, lo, hi)
			}
		}
	}
}

func TestBoundsRespectPhysics(t *testing.T) {
	c, err := New(syntheticScatter(2, 40), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rtt := 0.5; rtt < 500; rtt *= 1.4 {
		lo, hi := c.Band(rtt)
		sol := geo.LatencyToMaxDistanceKm(rtt)
		if hi > sol+1e-9 {
			t.Errorf("R(%.1f) = %.1f beats speed of light %.1f", rtt, hi, sol)
		}
		if lo < 0 || lo > hi+1e-9 {
			t.Errorf("band inverted at %.1f ms: [%.1f, %.1f]", rtt, lo, hi)
		}
	}
}

func TestCutoffBehaviour(t *testing.T) {
	samples := syntheticScatter(3, 80)
	c, err := New(samples, Options{CutoffPercentile: 75})
	if err != nil {
		t.Fatal(err)
	}
	rho := c.Rho()
	// Beyond ρ, r is constant.
	r1 := c.MinDistanceKm(rho + 10)
	r2 := c.MinDistanceKm(rho + 200)
	if math.Abs(r1-r2) > 1e-9 {
		t.Errorf("r beyond ρ not constant: %.2f vs %.2f", r1, r2)
	}
	// Beyond ρ, R approaches the speed-of-light line: the gap at the
	// sentinel is much smaller than at ρ.
	gapAt := func(x float64) float64 {
		return geo.LatencyToMaxDistanceKm(x) - c.MaxDistanceKm(x)
	}
	if g1, g2 := gapAt(rho+5), gapAt(4*rho); g2 > g1+1e-6 {
		t.Errorf("R does not blend toward speed of light: gap %.1f → %.1f", g1, g2)
	}
	// Higher cutoff percentile ⇒ larger ρ.
	c95, _ := New(samples, Options{CutoffPercentile: 95})
	if c95.Rho() < rho {
		t.Errorf("ρ(95) = %.1f < ρ(75) = %.1f", c95.Rho(), rho)
	}
}

func TestMonotoneUpperBound(t *testing.T) {
	// R_L should be (weakly) increasing in latency: more latency can
	// never shrink the feasible disk. The hull facets of an efficiency
	// scatter satisfy this.
	f := func(seed uint64) bool {
		c, err := New(syntheticScatter(seed, 50), Options{})
		if err != nil {
			return false
		}
		prev := -1.0
		for rtt := 1.0; rtt < 300; rtt += 3 {
			v := c.MaxDistanceKm(rtt)
			if v < prev-1e-6 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTighterThanSpeedOfLight(t *testing.T) {
	// The whole point of §2.1: hull bounds beat the conservative bound in
	// the calibrated range.
	c, err := New(syntheticScatter(7, 80), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mid := c.Rho() / 2
	if got, sol := c.MaxDistanceKm(mid), geo.LatencyToMaxDistanceKm(mid); got >= sol*0.99 {
		t.Errorf("calibrated bound %.0f not tighter than speed of light %.0f", got, sol)
	}
	if got := c.MinDistanceKm(mid); got <= 0 {
		t.Errorf("negative-constraint radius should be positive at %.1f ms, got %.1f", mid, got)
	}
}

func TestLatencyPercentileAndSortedSamples(t *testing.T) {
	samples := []Sample{{30, 1000}, {10, 300}, {20, 700}}
	c, err := New(samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.LatencyPercentile(50); got != 20 {
		t.Errorf("median latency = %v", got)
	}
	ss := c.SortedSamples()
	if ss[0].LatencyMs != 10 || ss[2].LatencyMs != 30 {
		t.Errorf("SortedSamples = %v", ss)
	}
	if up := c.UpperFacets(); len(up) == 0 {
		t.Error("no upper facets")
	}
	if lo := c.LowerFacets(); len(lo) == 0 {
		t.Error("no lower facets")
	}
}

// TestMonotoneEnvelopeDuplicateX: equal-latency samples with different
// distances (two peers behind one POP, or quantized RTT clocks) must not
// break the monotone upper envelope — it stays non-decreasing, the fit
// succeeds, and the bound covers the larger of the duplicates.
func TestMonotoneEnvelopeDuplicateX(t *testing.T) {
	samples := []Sample{
		{LatencyMs: 10, DistanceKm: 800},
		{LatencyMs: 10, DistanceKm: 300}, // duplicate x, smaller y
		{LatencyMs: 10, DistanceKm: 650}, // duplicate x, middle y
		{LatencyMs: 25, DistanceKm: 900},
		{LatencyMs: 25, DistanceKm: 1700},
		{LatencyMs: 40, DistanceKm: 1200}, // upper hull would descend here
		{LatencyMs: 60, DistanceKm: 2600},
	}
	c, err := New(samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for rtt := 1.0; rtt <= 80; rtt += 0.5 {
		r := c.MaxDistanceKm(rtt)
		if r < prev-1e-9 {
			t.Fatalf("R(%v) = %v < R(prev) = %v: envelope not monotone", rtt, r, prev)
		}
		prev = r
	}
	for _, s := range samples {
		if r := c.MaxDistanceKm(s.LatencyMs); r+1e-9 < s.DistanceKm {
			t.Errorf("R(%v) = %v fails to cover observed %v", s.LatencyMs, r, s.DistanceKm)
		}
	}
	// All-duplicate input: a vertical scatter still fits (degenerate hull).
	vert := []Sample{
		{LatencyMs: 12, DistanceKm: 100},
		{LatencyMs: 12, DistanceKm: 900},
		{LatencyMs: 12, DistanceKm: 400},
	}
	cv, err := New(vert, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := cv.MaxDistanceKm(12); r < 900-1e-9 {
		t.Errorf("vertical scatter: R(12) = %v, want ≥ 900", r)
	}
}

// TestLatencyPercentileBounds pins the endpoint and out-of-range
// behaviour: 0 and below clamp to the minimum sample, 100 and above to
// the maximum, and percentiles never leave [min, max].
func TestLatencyPercentileBounds(t *testing.T) {
	samples := syntheticScatter(9, 40)
	c, err := New(samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, s := range samples {
		min = math.Min(min, s.LatencyMs)
		max = math.Max(max, s.LatencyMs)
	}
	for _, pct := range []float64{-10, 0} {
		if got := c.LatencyPercentile(pct); got != min {
			t.Errorf("LatencyPercentile(%v) = %v, want min %v", pct, got, min)
		}
	}
	for _, pct := range []float64{100, 250} {
		if got := c.LatencyPercentile(pct); got != max {
			t.Errorf("LatencyPercentile(%v) = %v, want max %v", pct, got, max)
		}
	}
	for pct := 5.0; pct < 100; pct += 5 {
		got := c.LatencyPercentile(pct)
		if got < min || got > max {
			t.Errorf("LatencyPercentile(%v) = %v outside [%v, %v]", pct, got, min, max)
		}
	}
	if lo, hi := c.LatencyPercentile(25), c.LatencyPercentile(75); lo > hi {
		t.Errorf("percentiles not monotone: p25 %v > p75 %v", lo, hi)
	}
}

func TestSpline(t *testing.T) {
	// Exact interpolation at knots.
	s := NewSpline([]float64{0, 1, 2, 3}, []float64{0, 1, 4, 9})
	for i, x := range []float64{0, 1, 2, 3} {
		want := []float64{0, 1, 4, 9}[i]
		if got := s.Eval(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("Eval(%v) = %v, want %v", x, got, want)
		}
	}
	// Smooth between knots (bounded by neighbours for convex data).
	if v := s.Eval(1.5); v < 1 || v > 4 {
		t.Errorf("Eval(1.5) = %v out of [1,4]", v)
	}
	// Linear data stays linear, including extrapolation.
	lin := NewSpline([]float64{0, 1, 2}, []float64{0, 2, 4})
	for _, x := range []float64{-1, 0.5, 1.7, 3} {
		if got := lin.Eval(x); math.Abs(got-2*x) > 1e-9 {
			t.Errorf("linear spline Eval(%v) = %v, want %v", x, got, 2*x)
		}
	}
	// Degenerate inputs.
	if NewSpline([]float64{1}, []float64{2}) != nil {
		t.Error("single knot should be nil")
	}
	if NewSpline([]float64{1, 1}, []float64{2, 4}) != nil {
		t.Error("duplicate-x-only knots should be nil")
	}
	// Duplicate x among others: collapses to mean.
	dup := NewSpline([]float64{0, 1, 1, 2}, []float64{0, 1, 3, 4})
	if got := dup.Eval(1); math.Abs(got-2) > 1e-9 {
		t.Errorf("duplicate knot mean = %v, want 2", got)
	}
}

func TestSplineApproximation(t *testing.T) {
	c, err := New(syntheticScatter(9, 120), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp := c.SplineApproximation(10)
	if sp == nil {
		t.Fatal("no spline")
	}
	// The spline tracks the scatter: within the hull band at mid-range.
	mid := c.Rho() / 2
	lo, hi := c.Band(mid)
	if v := sp.Eval(mid); v < lo-100 || v > hi+100 {
		t.Errorf("spline %.0f far outside hull band [%.0f, %.0f] at %.1f ms", v, lo, hi, mid)
	}
}
