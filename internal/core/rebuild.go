package core

import (
	"fmt"
	"math"

	"octant/internal/calib"
	"octant/internal/height"
)

// RebuildStats reports what an incremental rebuild actually recomputed.
type RebuildStats struct {
	// Dirty lists the landmark indices whose measurements changed.
	Dirty []int
	// RebuiltCalibs counts per-landmark calibrations refitted (clean
	// landmarks keep their previous *Calibration by pointer).
	RebuiltCalibs int
	// GlobalRebuilt reports whether the pooled global calibration was
	// refitted.
	GlobalRebuilt bool
}

// RebuildSurvey derives the next epoch of prev from an updated RTT matrix,
// recomputing only what the dirty landmarks invalidate. rtt is the full
// n×n matrix with refreshed values on dirty pairs and the previous values
// carried forward everywhere else; dirty[i] marks landmarks whose
// measurements changed beyond the caller's drift tolerance.
//
// The rebuild is deliberately local, trading a bounded amount of staleness
// for an O(dirty) refresh instead of an O(n²) one:
//
//   - Kappa is carried forward from prev. It is a global median over all
//     pairs; a few drifted pairs cannot move it meaningfully, and keeping
//     it fixed keeps every clean landmark's calibration inputs
//     bit-identical.
//   - Heights of clean landmarks are carried forward; dirty landmarks'
//     heights are re-solved against the fixed clean heights (Gauss–Seidel
//     sweeps over the dirty set of the §2.2 least-squares system). A full
//     joint re-solve would perturb every height by coupling and dirty the
//     whole survey.
//   - Calibrations of clean landmarks are reused by pointer — including
//     their sample sets, which may now lag the RTT matrix on columns of
//     dirty peers. A calibration is a fit over one generation of that
//     landmark's measurements; it refreshes when the landmark itself goes
//     dirty (or on a full rebuild via NewSurvey), and per-pair drift below
//     the caller's tolerance is insignificant by definition.
//   - Dirty landmarks' calibrations are refitted from their refreshed RTT
//     row via (*calib.Calibration).Rebuild — identical to a fresh
//     calib.New on the same samples.
//   - The pooled global calibration is refitted from every per-landmark
//     sample set whenever at least one landmark was dirty.
//
// The result is a new immutable Survey with the given epoch; prev is not
// modified and remains fully usable (in-flight localizations against it
// are unaffected — this is what makes the lifecycle manager's RCU swap
// safe).
func RebuildSurvey(prev *Survey, rtt [][]float64, dirty []bool, epoch uint64) (*Survey, *RebuildStats, error) {
	n := prev.N()
	if len(rtt) != n || len(dirty) != n {
		return nil, nil, fmt.Errorf("core: rebuild dimensions (rtt %d, dirty %d) do not match survey (%d landmarks)",
			len(rtt), len(dirty), n)
	}
	for i := range rtt {
		if len(rtt[i]) != n {
			return nil, nil, fmt.Errorf("core: rebuild rtt row %d has %d cols, want %d", i, len(rtt[i]), n)
		}
	}
	s := &Survey{
		Epoch:      epoch,
		Landmarks:  append([]Landmark(nil), prev.Landmarks...),
		RTT:        make([][]float64, n),
		Kappa:      prev.Kappa,
		UseHeights: prev.UseHeights,
		Probes:     prev.Probes,
	}
	for i := range rtt {
		s.RTT[i] = append([]float64(nil), rtt[i]...)
	}
	st := &RebuildStats{}
	for i, d := range dirty {
		if d {
			st.Dirty = append(st.Dirty, i)
		}
	}
	if len(st.Dirty) == 0 {
		// Nothing drifted: share everything with prev under the new epoch.
		s.Heights = prev.Heights
		s.Calibs = prev.Calibs
		s.Global = prev.Global
		return s, st, nil
	}

	s.Heights = append([]float64(nil), prev.Heights...)
	solveDirtyHeights(s, st.Dirty)

	// Calibrations: clean by pointer, dirty refitted on the new row.
	s.Calibs = make([]*calib.Calibration, n)
	copy(s.Calibs, prev.Calibs)
	for _, i := range st.Dirty {
		c, err := prev.Calibs[i].Rebuild(s.samples(i))
		if err != nil {
			return nil, nil, fmt.Errorf("core: recalibrating %s: %w", s.Landmarks[i].Name, err)
		}
		if c != prev.Calibs[i] {
			st.RebuiltCalibs++
		}
		s.Calibs[i] = c
	}

	// Global pool over each calibration's own sample generation.
	var pooled []calib.Sample
	for _, c := range s.Calibs {
		pooled = append(pooled, c.Samples...)
	}
	g, err := calib.New(pooled, calib.Options{CutoffPercentile: prev.calibCutoff()})
	if err != nil {
		return nil, nil, fmt.Errorf("core: global recalibration: %w", err)
	}
	s.Global = g
	st.GlobalRebuilt = true
	return s, st, nil
}

// solveDirtyHeights re-solves the §2.2 heights of s's dirty landmarks
// against the carried-forward clean heights: Gauss–Seidel sweeps of the
// least-squares optimum h_d = mean_j(q_dj − h_j) over the dirty set, run
// to (deterministic) convergence. With one dirty landmark a single sweep
// is exact; with several, the sweeps converge geometrically because each
// h_d's update couples to other dirty heights with weight 1/(n−1).
func solveDirtyHeights(s *Survey, dirty []int) {
	n := s.N()
	if n < 2 {
		return
	}
	// Queuing-delay rows of the dirty landmarks under the carried κ.
	q := make(map[int][]float64, len(dirty))
	for _, d := range dirty {
		row := make([]float64, n)
		for j := 0; j < n; j++ {
			if j == d {
				continue
			}
			row[j] = height.QueuingDelayK(s.RTT[d][j], s.Kappa, s.Landmarks[d].Loc, s.Landmarks[j].Loc)
		}
		q[d] = row
	}
	for iter := 0; iter < 64; iter++ {
		var maxDelta float64
		for _, d := range dirty {
			var sum float64
			for j := 0; j < n; j++ {
				if j == d {
					continue
				}
				sum += q[d][j] - s.Heights[j]
			}
			h := sum / float64(n-1)
			if h < 0 {
				h = 0
			}
			if delta := math.Abs(h - s.Heights[d]); delta > maxDelta {
				maxDelta = delta
			}
			s.Heights[d] = h
		}
		if maxDelta < 1e-12 {
			break
		}
	}
}
