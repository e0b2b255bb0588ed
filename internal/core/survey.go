package core

import (
	"context"
	"fmt"
	"math"

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
// A Survey is immutable after NewSurvey (or Subset, or Refit) returns:
// no method writes to it, and every Calibration read path is pure. Any
// number of goroutines may therefore localize against one Survey
// concurrently without locking — the batch engine and octant-serve rely
// on this. Callers must not mutate the exported fields after
// construction. Refreshing measurements never modifies a Survey in place;
// it produces a new snapshot with a higher Epoch (see Refit and the
// lifecycle manager).
type Survey struct {
	// Epoch versions the snapshot. A survey built by NewSurvey is epoch
	// 0; each lifecycle recalibration publishes a successor with Epoch+1.
	// Consumers (the batch engine's cache, octant-serve) use it to tell
	// snapshots apart without comparing measurement state.
	Epoch uint64

	Landmarks []Landmark
	RTT       [][]float64 // [i][j] min RTT between landmarks i and j, ms
	Heights   []float64   // per-landmark queuing heights, ms
	// Calibs holds one calibration per landmark, fitted from its RTT row.
	Calibs []*calib.Calibration
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
		RTT:        make([][]float64, n),
		UseHeights: opts.UseHeights,
		Probes:     opts.Probes,
	}
	pairs := make([][2]int, 0, n*(n-1)/2)
	for i := range s.RTT {
		s.RTT[i] = make([]float64, n)
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	// An ephemeral scheduler at the default caps.
	sched := measure.New(measure.Config{})
	mins, err := MeasurePairs(context.Background(), sched, p, landmarks, pairs, opts.Probes)
	if err != nil {
		return nil, err
	}
	for k, pr := range pairs {
		s.RTT[pr[0]][pr[1]], s.RTT[pr[1]][pr[0]] = mins[k], mins[k]
	}
	if err := s.fit(opts.CutoffPercentile); err != nil {
		return nil, err
	}
	return s, nil
}

// MeasurePairs measures the min-filtered RTT of each listed landmark pair
// (indices into landmarks) once and returns them in pairs order — the one
// landmark↔landmark sweep, run by NewSurvey over every pair and by a
// lifecycle refresh over the pairs in its scope. It is sched's pair sweep
// (measure.Scheduler.PingPairsInto): pings paced per source landmark,
// bounded by ctx, and the first failing pair in pairs order aborts it.
func MeasurePairs(ctx context.Context, sched *measure.Scheduler, p probe.Prober, landmarks []Landmark, pairs [][2]int, probes int) ([]float64, error) {
	addrs := make([]string, len(landmarks))
	for i, lm := range landmarks {
		addrs[i] = lm.Addr
	}
	mins := make([]float64, len(pairs))
	if k, err := sched.PingPairsInto(ctx, p, addrs, pairs, probes, mins); err != nil {
		a, b := landmarks[pairs[k][0]], landmarks[pairs[k][1]]
		return nil, fmt.Errorf("core: landmark ping %s→%s: %w", a.Name, b.Name, err)
	}
	return mins, nil
}

// fit derives everything a survey computes from its RTT matrix — κ,
// heights, one calibration per landmark and the pooled global one
// (§2.1–2.2) — and is the only place that happens: NewSurvey, Subset,
// Refit and ReadSnapshot all end here.
func (s *Survey) fit(cutoff float64) error {
	n := s.N()
	// Heights from pairwise queuing-delay residuals (§2.2), after
	// removing the typical route inflation κ so heights stay per-node.
	locs := make([]geo.Point, n)
	for i := range s.Landmarks {
		locs[i] = s.Landmarks[i].Loc
	}
	s.Kappa = height.EstimateInflation(s.RTT, locs, 0)
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
		for j := range q[i] {
			if i != j {
				q[i][j] = height.QueuingDelayK(s.RTT[i][j], s.Kappa, locs[i], locs[j])
			}
		}
	}
	var err error
	if s.Heights, err = height.SolveLandmarks(q); err != nil {
		return err
	}
	// Finite RTTs can still overflow the heights system's row sums (a
	// 1e308 ms matrix does), and evidence subtracts heights whether or
	// not UseHeights is set.
	for i, h := range s.Heights {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			return fmt.Errorf("core: height of %s = %v ms is not finite", s.Landmarks[i].Name, h)
		}
	}

	// Per-landmark calibration from (optionally height-adjusted)
	// latencies against known inter-landmark distances (§2.1).
	opts := calib.Options{CutoffPercentile: cutoff}
	s.Calibs = make([]*calib.Calibration, n)
	var pooled []calib.Sample
	for i := range s.Calibs {
		samples := s.samples(i)
		if s.Calibs[i], err = calib.New(samples, opts); err != nil {
			return fmt.Errorf("core: calibrating %s: %w", s.Landmarks[i].Name, err)
		}
		pooled = append(pooled, samples...)
	}
	if s.Global, err = calib.New(pooled, opts); err != nil {
		return fmt.Errorf("core: global calibration: %w", err)
	}
	return nil
}

// samples returns landmark i's calibration samples: its RTT row
// (height-adjusted when UseHeights) against the known distances to every
// other landmark, in landmark order.
func (s *Survey) samples(i int) []calib.Sample {
	n := s.N()
	out := make([]calib.Sample, 0, n-1)
	for j := 0; j < n; j++ {
		if i == j {
			continue
		}
		rtt := s.RTT[i][j]
		if s.UseHeights {
			rtt = height.AdjustRTT(rtt, s.Heights[i], s.Heights[j])
		}
		out = append(out, calib.Sample{
			LatencyMs:  rtt,
			DistanceKm: s.Landmarks[i].Loc.DistanceKm(s.Landmarks[j].Loc),
		})
	}
	return out
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
	if err := sub.fit(s.calibCutoff()); err != nil {
		return nil, err
	}
	return sub, nil
}

// Refit returns the survey NewSurvey would fit from rtt over s's
// landmarks — same probe count, height mode and calibration cutoff —
// under the given epoch: κ, every height and every calibration are
// re-derived from the whole matrix. A lifecycle refresh publishes its
// next epoch this way. rtt must be n×n; s is not modified.
func (s *Survey) Refit(rtt [][]float64, epoch uint64) (*Survey, error) {
	n := s.N()
	if len(rtt) != n {
		return nil, fmt.Errorf("core: refit rtt has %d rows, want %d", len(rtt), n)
	}
	next := &Survey{
		Epoch:      epoch,
		Landmarks:  append([]Landmark(nil), s.Landmarks...),
		RTT:        make([][]float64, n),
		UseHeights: s.UseHeights,
		Probes:     s.Probes,
	}
	for i, row := range rtt {
		if len(row) != n {
			return nil, fmt.Errorf("core: refit rtt row %d has %d cols, want %d", i, len(row), n)
		}
		next.RTT[i] = append([]float64(nil), row...)
	}
	if err := next.fit(s.calibCutoff()); err != nil {
		return nil, err
	}
	return next, nil
}

// CheckMesh reports the first reason landmarks cannot be a survey's mesh:
// fewer than three, an invalid position, or a name or address used twice
// — names address landmarks in the admin API (scoped refresh) and
// addresses identify probe endpoints, so ambiguity in either would
// silently misdirect recalibration. Every landmark set that arrives from
// outside the program (a landmark file, a snapshot) passes through it.
func CheckMesh(landmarks []Landmark) error {
	if len(landmarks) < 3 {
		return fmt.Errorf("need ≥ 3 landmarks, have %d", len(landmarks))
	}
	names, addrs := make(map[string]int), make(map[string]int)
	for i, lm := range landmarks {
		if !lm.Loc.Valid() {
			return fmt.Errorf("landmark %d (%s) at %v is not a valid position", i, lm.Name, lm.Loc)
		}
		if j, dup := names[lm.Name]; dup {
			return fmt.Errorf("landmarks %d and %d share the name %q", j, i, lm.Name)
		}
		if j, dup := addrs[lm.Addr]; dup {
			return fmt.Errorf("landmarks %d and %d share the address %q", j, i, lm.Addr)
		}
		names[lm.Name], addrs[lm.Addr] = i, i
	}
	return nil
}

// SameMesh reports whether s was measured over exactly the given mesh —
// same landmark count, order, names, addresses and positions — at the
// given ping-sample count per pair; the error names the first mismatch.
// Every survey from outside (a snapshot file, a coordinator's push) is
// asked this before it stands in for the configured or serving one:
// calibrations hold only for the mesh they were fitted on, and min-of-n
// RTTs compare only at the same n.
func (s *Survey) SameMesh(landmarks []Landmark, probes int) error {
	if len(s.Landmarks) != len(landmarks) {
		return fmt.Errorf("survey has %d landmarks, want %d", len(s.Landmarks), len(landmarks))
	}
	for i, lm := range landmarks {
		if got := s.Landmarks[i]; got != lm {
			return fmt.Errorf("landmark %d is %s (%s) at %s, want %s (%s) at %s",
				i, got.Name, got.Addr, got.Loc, lm.Name, lm.Addr, lm.Loc)
		}
	}
	if s.Probes != probes {
		return fmt.Errorf("survey was measured with %d probes per pair, want %d", s.Probes, probes)
	}
	return nil
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
