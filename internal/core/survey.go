package core

import (
	"context"
	"fmt"

	"octant/internal/calib"
	"octant/internal/geo"
	"octant/internal/height"
	"octant/internal/measure"
	"octant/internal/probe"
)

// Landmark is a node with (at least partially) known position that issues
// measurements. Primary landmarks have exact positions; secondary landmarks
// (localized routers) enter localization separately with estimated regions.
type Landmark struct {
	Addr string // probing address (host name in the simulator)
	Name string // display name
	Loc  geo.Point
}

// Survey holds the periodic inter-landmark calibration state Octant
// maintains (§2.1–2.2): the pairwise min-filtered RTT matrix, the solved
// per-landmark heights, and each landmark's latency→distance calibration.
// It is shared by Octant and the baselines so all techniques see identical
// measurements, as in the paper's evaluation.
//
// A Survey is immutable after NewSurvey (or Subset, or RebuildSurvey)
// returns: no method writes to it, and every Calibration read path is
// pure. Any number of goroutines may therefore localize against one
// Survey concurrently without locking — the batch engine and octant-serve
// rely on this. Callers must not mutate the exported fields after
// construction. Refreshing measurements never modifies a Survey in place;
// it produces a new snapshot with a higher Epoch (see RebuildSurvey and
// the lifecycle manager).
type Survey struct {
	// Epoch versions the snapshot. A survey built by NewSurvey is epoch
	// 0; each lifecycle recalibration publishes a successor with Epoch+1.
	// Consumers (the batch engine's cache, octant-serve) use it to tell
	// snapshots apart without comparing measurement state.
	Epoch uint64

	Landmarks []Landmark
	RTT       [][]float64 // [i][j] min RTT between landmarks i and j, ms
	Heights   []float64   // per-landmark queuing heights, ms
	Calibs    []*calib.Calibration
	// Global pools every pair's (latency, distance) sample into one
	// calibration; used for nodes without their own calibration history,
	// e.g. routers promoted to landmarks during piecewise localization.
	Global *calib.Calibration

	// Kappa is the calibrated typical route-inflation factor: measured
	// RTT ≈ Kappa × great-circle fiber RTT + heights. It keeps the
	// distance-proportional part of latency out of the per-node heights.
	Kappa float64

	// Probes records the ping-sample count each pair's min-RTT was
	// filtered over. Min-of-n is biased by n, so measurements are only
	// comparable — e.g. by a refresh's drift detection — when remeasured
	// with the same count.
	Probes int

	// UseHeights records whether calibrations were built on
	// height-adjusted latencies.
	UseHeights bool
}

// SurveyOpts configures survey construction.
type SurveyOpts struct {
	Probes           int     // ping samples per pair (default 10, as in §3)
	CutoffPercentile float64 // calibration cutoff ρ percentile (default 90)
	UseHeights       bool    // adjust latencies by solved heights (§2.2)
	// Workers bounds the concurrent pairwise pings of the O(k²) survey
	// matrix (0 = the scheduler default, 16; 1 or negative = one pair at
	// a time). Pair (i,j) is always measured exactly once, so a
	// deterministic prober yields a bit-identical matrix regardless of
	// the setting.
	Workers int
}

func (o *SurveyOpts) fillDefaults() {
	if o.Probes == 0 {
		o.Probes = 10
	}
	if o.CutoffPercentile == 0 {
		o.CutoffPercentile = 90
	}
}

// NewSurvey measures all landmark pairs through the prober and fits
// heights and calibrations. It needs ≥ 3 landmarks (for the heights
// system) and O(n²) pings.
func NewSurvey(p probe.Prober, landmarks []Landmark, opts SurveyOpts) (*Survey, error) {
	opts.fillDefaults()
	n := len(landmarks)
	if n < 3 {
		return nil, fmt.Errorf("core: survey needs ≥ 3 landmarks, have %d", n)
	}
	s := &Survey{
		Landmarks:  append([]Landmark(nil), landmarks...),
		UseHeights: opts.UseHeights,
		Probes:     opts.Probes,
	}
	s.RTT = make([][]float64, n)
	for i := range s.RTT {
		s.RTT[i] = make([]float64, n)
	}
	if err := surveyPairs(p, landmarks, opts, s.RTT); err != nil {
		return nil, err
	}

	// Heights from pairwise queuing-delay residuals (§2.2), after
	// removing the typical route inflation κ so heights stay per-node.
	locs := make([]geo.Point, n)
	for i := range landmarks {
		locs[i] = landmarks[i].Loc
	}
	s.Kappa = height.EstimateInflation(s.RTT, locs, 0)
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
		for j := range q[i] {
			if i == j {
				continue
			}
			q[i][j] = height.QueuingDelayK(s.RTT[i][j], s.Kappa, landmarks[i].Loc, landmarks[j].Loc)
		}
	}
	h, err := height.SolveLandmarks(q)
	if err != nil {
		return nil, err
	}
	s.Heights = h

	// Per-landmark calibration from (optionally height-adjusted)
	// latencies against known inter-landmark distances (§2.1).
	s.Calibs = make([]*calib.Calibration, n)
	var pooled []calib.Sample
	for i := 0; i < n; i++ {
		samples := make([]calib.Sample, 0, n-1)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rtt := s.RTT[i][j]
			if opts.UseHeights {
				rtt = height.AdjustRTT(rtt, h[i], h[j])
			}
			samples = append(samples, calib.Sample{
				LatencyMs:  rtt,
				DistanceKm: landmarks[i].Loc.DistanceKm(landmarks[j].Loc),
			})
		}
		c, err := calib.New(samples, calib.Options{CutoffPercentile: opts.CutoffPercentile})
		if err != nil {
			return nil, fmt.Errorf("core: calibrating %s: %w", landmarks[i].Name, err)
		}
		s.Calibs[i] = c
		pooled = append(pooled, samples...)
	}
	g, err := calib.New(pooled, calib.Options{CutoffPercentile: opts.CutoffPercentile})
	if err != nil {
		return nil, fmt.Errorf("core: global calibration: %w", err)
	}
	s.Global = g
	return s, nil
}

// surveyPairs measures every landmark pair once and fills the symmetric
// RTT matrix. The O(k²) pings fan out through an ephemeral measurement
// scheduler (no cache — a survey is the baseline other measurements are
// compared against, so every pair is probed fresh). The first failing
// pair in (i, j) iteration order aborts the build: the scheduler
// dispatches slots in order and reports the lowest errored one.
func surveyPairs(p probe.Prober, landmarks []Landmark, opts SurveyOpts, rtt [][]float64) error {
	n := len(landmarks)
	type pair struct{ i, j int }
	pairs := make([]pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	sched := measure.New(measure.Config{Workers: opts.Workers})
	_, err := sched.Run(context.Background(), len(pairs), func(slot int) error {
		i, j := pairs[slot].i, pairs[slot].j
		return sched.Paced(context.Background(), landmarks[i].Addr, func() error {
			samples, err := p.Ping(landmarks[i].Addr, landmarks[j].Addr, opts.Probes)
			if err != nil {
				return fmt.Errorf("core: survey ping %s→%s: %w",
					landmarks[i].Name, landmarks[j].Name, err)
			}
			min, err := probe.MinRTT(samples)
			if err != nil {
				return err
			}
			// Distinct pairs write distinct (i,j)/(j,i) cells, so concurrent
			// slots never contend.
			rtt[i][j], rtt[j][i] = min, min
			return nil
		})
	})
	return err
}

// Subset returns a survey restricted to the landmark indices in idx,
// reusing the existing measurements (recomputing heights and calibrations
// on the subset). Used by the Figure 4 landmark-count sweep.
func (s *Survey) Subset(idx []int) (*Survey, error) {
	n := len(idx)
	if n < 3 {
		return nil, fmt.Errorf("core: subset needs ≥ 3 landmarks, have %d", n)
	}
	sub := &Survey{
		Epoch:      s.Epoch, // same measurement generation, fewer landmarks
		Landmarks:  make([]Landmark, n),
		RTT:        make([][]float64, n),
		UseHeights: s.UseHeights,
		Probes:     s.Probes,
	}
	for a, i := range idx {
		sub.Landmarks[a] = s.Landmarks[i]
		sub.RTT[a] = make([]float64, n)
		for b, j := range idx {
			sub.RTT[a][b] = s.RTT[i][j]
		}
	}
	locs := make([]geo.Point, n)
	for a := range sub.Landmarks {
		locs[a] = sub.Landmarks[a].Loc
	}
	sub.Kappa = height.EstimateInflation(sub.RTT, locs, 0)
	q := make([][]float64, n)
	for a := range q {
		q[a] = make([]float64, n)
		for b := range q[a] {
			if a == b {
				continue
			}
			q[a][b] = height.QueuingDelayK(sub.RTT[a][b], sub.Kappa, sub.Landmarks[a].Loc, sub.Landmarks[b].Loc)
		}
	}
	h, err := height.SolveLandmarks(q)
	if err != nil {
		return nil, err
	}
	sub.Heights = h
	sub.Calibs = make([]*calib.Calibration, n)
	var pooled []calib.Sample
	for a := 0; a < n; a++ {
		samples := make([]calib.Sample, 0, n-1)
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			rtt := sub.RTT[a][b]
			if sub.UseHeights {
				rtt = height.AdjustRTT(rtt, h[a], h[b])
			}
			samples = append(samples, calib.Sample{
				LatencyMs:  rtt,
				DistanceKm: sub.Landmarks[a].Loc.DistanceKm(sub.Landmarks[b].Loc),
			})
		}
		c, err := calib.New(samples, calib.Options{CutoffPercentile: s.calibCutoff()})
		if err != nil {
			return nil, err
		}
		sub.Calibs[a] = c
		pooled = append(pooled, samples...)
	}
	g, err := calib.New(pooled, calib.Options{CutoffPercentile: s.calibCutoff()})
	if err != nil {
		return nil, err
	}
	sub.Global = g
	return sub, nil
}

// calibCutoff recovers the cutoff percentile used at construction (all
// calibrations share it).
func (s *Survey) calibCutoff() float64 {
	if len(s.Calibs) > 0 {
		return s.Calibs[0].Opts.CutoffPercentile
	}
	return 90
}

// N returns the number of landmarks.
func (s *Survey) N() int { return len(s.Landmarks) }

// Centroid returns the spherical centroid of landmark positions — the
// natural projection centre for a localization.
func (s *Survey) Centroid() geo.Point {
	pts := make([]geo.Point, len(s.Landmarks))
	for i, l := range s.Landmarks {
		pts[i] = l.Loc
	}
	return geo.Centroid(pts)
}
