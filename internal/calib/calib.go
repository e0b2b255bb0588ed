// Package calib implements Octant's landmark calibration (§2.1 of the
// paper): converting a landmark's latency measurement into a tight
// [r_L(d), R_L(d)] distance band.
//
// Each landmark periodically pings its peer landmarks, producing a
// (latency, distance) scatter like Figure 2. The convex hull around the
// scatter gives the empirically tightest bounds consistent with all
// observations: the upper facets form R_L (the positive-constraint radius),
// the lower facets r_L (the negative-constraint radius). Past a percentile
// cutoff ρ the hull is discarded as statistically unsupported, r_L is held
// constant, and R_L blends linearly toward the speed-of-light bound through
// a fictitious far-away sentinel datapoint — exactly the construction in
// the paper.
package calib

import (
	"fmt"
	"math"
	"sort"

	"octant/internal/geo"
	"octant/internal/hull"
	"octant/internal/stats"
)

// Sample is one calibration observation: the min-filtered RTT to a peer
// landmark and the known great-circle distance to it.
type Sample struct {
	LatencyMs  float64
	DistanceKm float64
}

// Options tunes calibration.
type Options struct {
	// CutoffPercentile is the latency percentile ρ beyond which hull
	// facets are considered statistically unsupported (default 90).
	CutoffPercentile float64
}

func (o *Options) fillDefaults() {
	if o.CutoffPercentile == 0 {
		o.CutoffPercentile = 90
	}
}

// Calibration is a fitted latency→distance model for one landmark.
type Calibration struct {
	Samples []Sample
	Opts    Options

	upper     hull.Chain // truncated R_L facets (exposed for Figure 2)
	lower     hull.Chain // truncated r_L facets (exposed for Figure 2)
	fullUpper hull.Chain // untruncated chains used for evaluation left of ρ
	fullLower hull.Chain
	rho       float64 // cutoff latency
	// Linear blend R(x) = slopeR·(x−ρ) + R(ρ) for x ≥ ρ.
	slopeR float64
	rAtRho float64 // R_L(ρ)
	rLow   float64 // r_L(ρ), held constant beyond ρ
}

// ErrTooFewSamples is returned when calibration lacks data.
var ErrTooFewSamples = fmt.Errorf("calib: need at least 2 samples")

// New fits a calibration from peer measurements. It refuses what no survey
// measures — a cutoff percentile outside (0, 100], a latency that is not a
// finite RTT ≥ 0, a distance outside [0, π·R] — as a snapshot can carry it.
func New(samples []Sample, opts Options) (*Calibration, error) {
	if len(samples) < 2 {
		return nil, ErrTooFewSamples
	}
	opts.fillDefaults()
	if p := opts.CutoffPercentile; !(p > 0 && p <= 100) {
		return nil, fmt.Errorf("calib: cutoff percentile %v is outside (0, 100]", p)
	}
	for i, s := range samples {
		if !(s.LatencyMs >= 0 && s.LatencyMs <= math.MaxFloat64 && s.DistanceKm >= 0 && s.DistanceKm <= math.Pi*geo.EarthRadiusKm) {
			return nil, fmt.Errorf("calib: sample %d (%v ms, %v km) is no RTT ≥ 0 over a distance in [0, π·R]", i, s.LatencyMs, s.DistanceKm)
		}
	}
	c := &Calibration{Samples: append([]Sample(nil), samples...), Opts: opts}

	pts := make([]hull.P, len(samples))
	lats := make([]float64, len(samples))
	for i, s := range samples {
		pts[i] = hull.P{X: s.LatencyMs, Y: s.DistanceKm}
		lats[i] = s.LatencyMs
	}
	c.rho = stats.Percentile(lats, opts.CutoffPercentile)

	// The upper hull can descend at its right edge when the
	// highest-latency peer happens to be close by; as a *bound* on unseen
	// nodes that descent is meaningless (extra latency never certifies a
	// smaller maximum distance), so R_L uses the monotone envelope.
	upper, lower := hull.Facets(pts)
	c.fullUpper, c.fullLower = monotoneEnvelope(hull.Chain(upper)), hull.Chain(lower)
	c.upper = c.fullUpper.TruncateRight(c.rho)
	c.lower = c.fullLower.TruncateRight(c.rho)

	// R_L(ρ) and r_L(ρ), evaluated on the full chains and bounded by
	// physics.
	c.rAtRho = math.Min(c.fullUpper.Eval(c.rho), geo.LatencyToMaxDistanceKm(c.rho))
	c.rLow = math.Max(0, c.fullLower.Eval(c.rho))

	// Sentinel z on the speed-of-light line at 4ρ (at least ρ + 50 ms),
	// far to the right; the R_L blend approaches the conservative bound
	// smoothly (§2.1).
	xz := max(4*c.rho, c.rho+50)
	yz := geo.LatencyToMaxDistanceKm(xz)
	c.slopeR = (yz - c.rAtRho) / (xz - c.rho)
	return c, nil
}

// Rho returns the percentile cutoff latency ρ.
func (c *Calibration) Rho() float64 { return c.rho }

// MaxDistanceKm returns R_L(rtt): the largest distance at which a node with
// this round-trip time can plausibly be. It is always bounded by the
// speed-of-light distance and never negative.
func (c *Calibration) MaxDistanceKm(rttMs float64) float64 {
	sol := geo.LatencyToMaxDistanceKm(rttMs)
	var r float64
	if rttMs >= c.rho {
		r = c.rAtRho + c.slopeR*(rttMs-c.rho)
	} else {
		r = c.fullUpper.Eval(rttMs)
	}
	if math.IsNaN(r) || r > sol {
		r = sol
	}
	if r < 0 {
		r = 0
	}
	return r
}

// MinDistanceKm returns r_L(rtt): the smallest distance at which a node
// with this round-trip time can plausibly be (the negative-constraint
// radius). Beyond ρ it is held at r_L(ρ) per the paper.
func (c *Calibration) MinDistanceKm(rttMs float64) float64 {
	var r float64
	if rttMs >= c.rho {
		r = c.rLow
	} else {
		r = c.fullLower.Eval(rttMs)
	}
	if math.IsNaN(r) || r < 0 {
		r = 0
	}
	// Never above the corresponding upper bound.
	if up := c.MaxDistanceKm(rttMs); r > up {
		r = up
	}
	return r
}

// Band returns [r_L(rtt), R_L(rtt)] in one call.
func (c *Calibration) Band(rttMs float64) (minKm, maxKm float64) {
	return c.MinDistanceKm(rttMs), c.MaxDistanceKm(rttMs)
}

// UpperFacets exposes the truncated upper hull chain (for Figure 2 output).
func (c *Calibration) UpperFacets() []hull.P { return append([]hull.P(nil), c.upper...) }

// LowerFacets exposes the truncated lower hull chain (for Figure 2 output).
func (c *Calibration) LowerFacets() []hull.P { return append([]hull.P(nil), c.lower...) }

// LatencyPercentile returns the latency below which pct% of calibration
// samples fall — the vertical reference lines in Figure 2.
func (c *Calibration) LatencyPercentile(pct float64) float64 {
	lats := make([]float64, len(c.Samples))
	for i, s := range c.Samples {
		lats[i] = s.LatencyMs
	}
	return stats.Percentile(lats, pct)
}

// SortedSamples returns the calibration scatter sorted by latency (for
// rendering Figure 2).
func (c *Calibration) SortedSamples() []Sample {
	out := append([]Sample(nil), c.Samples...)
	sort.Slice(out, func(i, j int) bool { return out[i].LatencyMs < out[j].LatencyMs })
	return out
}

// monotoneEnvelope returns the non-decreasing upper envelope of a chain:
// descending runs flatten at the running maximum.
func monotoneEnvelope(c hull.Chain) hull.Chain {
	if len(c) == 0 {
		return c
	}
	out := make(hull.Chain, 0, len(c))
	runMax := math.Inf(-1)
	for _, p := range c {
		if p.Y > runMax {
			runMax = p.Y
		}
		out = append(out, hull.P{X: p.X, Y: runMax})
	}
	return out
}
