// Package baselines reimplements the three prior-work geolocalization
// techniques the paper compares against in §3: GeoLim (Constraint-Based
// Geolocation, Gueye et al. IMC'04), and GeoPing / GeoTrack (IP2Geo,
// Padmanabhan & Subramanian SIGCOMM'01). All three consume the same
// measurement survey as Octant, so comparisons are apples-to-apples.
package baselines

import (
	"math"

	"octant/internal/core"
	"octant/internal/geo"
	"octant/internal/linalg"
	"octant/internal/measure"
	"octant/internal/probe"
)

// GeoLim implements constraint-based geolocation: each landmark converts
// its RTT to the target into a distance upper bound via a per-landmark
// "bestline" (the line above all calibration points that minimizes total
// overestimation), and the target region is the intersection of the
// resulting disks.
type GeoLim struct {
	Survey *core.Survey
	// bestlines[i] = (slope km/ms, intercept km) for landmark i.
	bestlines [][2]float64
}

// NewGeoLim fits bestlines for every landmark in the survey.
func NewGeoLim(s *core.Survey) *GeoLim {
	g := &GeoLim{Survey: s, bestlines: make([][2]float64, s.N())}
	for i := 0; i < s.N(); i++ {
		g.bestlines[i] = fitBestline(s, i)
	}
	return g
}

// fitBestline finds (m, b) minimizing Σ_j (m·d_j + b − g_j) subject to
// m·d_j + b ≥ g_j for all peers j and m > 0. The optimum passes through
// two calibration points (an LP vertex), so candidate lines are point
// pairs; O(n²) pairs with O(n) feasibility checks.
func fitBestline(s *core.Survey, i int) [2]float64 {
	type pt struct{ d, g float64 }
	var pts []pt
	for j := 0; j < s.N(); j++ {
		if j == i {
			continue
		}
		pts = append(pts, pt{s.RTT[i][j], s.Landmarks[i].Loc.DistanceKm(s.Landmarks[j].Loc)})
	}
	bestM, bestB := 0.0, 0.0
	bestCost := math.Inf(1)
	feasible := func(m, b float64) (float64, bool) {
		if m <= 0 {
			return 0, false
		}
		var cost float64
		for _, p := range pts {
			diff := m*p.d + b - p.g
			if diff < -1e-6 {
				return 0, false
			}
			cost += diff
		}
		return cost, true
	}
	for a := 0; a < len(pts); a++ {
		for b := a + 1; b < len(pts); b++ {
			if pts[a].d == pts[b].d {
				continue
			}
			m := (pts[b].g - pts[a].g) / (pts[b].d - pts[a].d)
			c := pts[a].g - m*pts[a].d
			if cost, ok := feasible(m, c); ok && cost < bestCost {
				bestCost, bestM, bestB = cost, m, c
			}
		}
	}
	if math.IsInf(bestCost, 1) {
		// Degenerate calibration: fall back to the through-origin line
		// dominating all points (slope = max g/d).
		m := 0.0
		for _, p := range pts {
			if p.d > 0 && p.g/p.d > m {
				m = p.g / p.d
			}
		}
		if m == 0 {
			m = geo.FiberSpeedKmPerMs / 2 // physical fallback
		}
		return [2]float64{m, 0}
	}
	return [2]float64{bestM, bestB}
}

// Bound returns landmark i's distance upper bound for an RTT.
func (g *GeoLim) Bound(i int, rttMs float64) float64 {
	m, b := g.bestlines[i][0], g.bestlines[i][1]
	est := m*rttMs + b
	// Physically cap at the speed-of-light distance.
	if sol := geo.LatencyToMaxDistanceKm(rttMs); est > sol {
		est = sol
	}
	if est < 0 {
		est = 0
	}
	return est
}

// GeoLimResult is a constraint-based geolocation outcome.
type GeoLimResult struct {
	Target     string
	Point      geo.Point
	Region     *geo.Region // empty when the disks over-constrain
	Projection *geo.Projection
	AreaKm2    float64
}

// ContainsTruth reports whether the truth is inside the estimated region.
func (r *GeoLimResult) ContainsTruth(truth geo.Point) bool {
	if r.Region.IsEmpty() {
		return false
	}
	return r.Region.Contains(r.Projection.Forward(truth))
}

// Localize runs constraint-based geolocation on a target.
func (g *GeoLim) Localize(p probe.Prober, targetAddr string, probes int) (*GeoLimResult, error) {
	s := g.Survey
	rtts, err := pingLandmarks(measure.New(measure.Config{}), p, s, targetAddr, probes, "geolim ping")
	if err != nil {
		return nil, err
	}
	pr := geo.NewProjection(s.Centroid())
	// The intersection of the N bound disks is where N unit-weight positive
	// constraints reach weight N — §3's reading of GeoLim as Octant with equal
	// weights and no negative information — so the solver finds it: its top
	// level, accepted when that weight is N and over-constrained otherwise.
	disks := make([]core.Constraint, s.N())
	for i, lm := range s.Landmarks {
		ring := pr.GeoCircle(lm.Loc, math.Max(g.Bound(i, rtts[i]), 1), 96)
		disks[i] = core.Constraint{Kind: core.Positive, Region: geo.RegionFromRing(ring), Weight: 1}
	}
	res := &GeoLimResult{Target: targetAddr, Region: geo.EmptyRegion(), Projection: pr}
	// MinAreaKm2 under one cell's area takes only the top weight level.
	if sol, err := core.Solve(disks, core.SolverOpts{MinAreaKm2: 1}); err == nil && sol.Weight == float64(s.N()) {
		res.Region, res.AreaKm2 = sol.Region, sol.Region.Area()
		res.Point = pr.Inverse(sol.Region.Centroid())
		return res, nil
	}
	// Over-constrained: report the point minimizing the maximum bound
	// violation (the natural point estimate when the intersection is
	// empty), with an empty region.
	obj := func(v []float64) float64 {
		pt := geo.Pt(clamp(v[0], -89, 89), wrapLon(v[1]))
		worst := math.Inf(-1)
		for i, lm := range s.Landmarks {
			viol := lm.Loc.DistanceKm(pt) - g.Bound(i, rtts[i])
			if viol > worst {
				worst = viol
			}
		}
		return worst
	}
	c := s.Centroid()
	best, _ := linalg.NelderMead(obj, []float64{c.Lat, c.Lon}, &linalg.NelderMeadOpts{MaxIter: 1500, Step: 3})
	res.Point = geo.Pt(clamp(best[0], -89, 89), wrapLon(best[1]))
	return res, nil
}

func clamp(v, lo, hi float64) float64 {
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
