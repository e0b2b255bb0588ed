package baselines

import (
	"context"
	"fmt"
	"math"

	"octant/internal/core"
	"octant/internal/geo"
	"octant/internal/measure"
	"octant/internal/probe"
)

// GeoPing (IP2Geo) maps the target to the landmark whose network signature
// — its vector of latencies to the probing landmarks — most resembles the
// target's, then reports that landmark's location. The similarity metric
// is the RMS difference between latency vectors (the "closest latency
// characteristics" metric of §4 / RADAR).
type GeoPing struct {
	Survey *core.Survey
}

// NewGeoPing wraps a survey.
func NewGeoPing(s *core.Survey) *GeoPing { return &GeoPing{Survey: s} }

// GeoPingResult is a GeoPing outcome.
type GeoPingResult struct {
	Target string
	Point  geo.Point
	// BestLandmark is the index of the matched landmark in the survey.
	BestLandmark int
	// Score is the RMS signature distance to the matched landmark (ms).
	Score float64
}

// Localize maps targetAddr onto the most latency-similar landmark.
func (g *GeoPing) Localize(p probe.Prober, targetAddr string, probes int) (*GeoPingResult, error) {
	s := g.Survey
	n := s.N()
	sig, err := pingLandmarks(measure.New(measure.Config{}), p, s, targetAddr, probes, "geoping")
	if err != nil {
		return nil, err
	}
	best := -1
	bestScore := math.Inf(1)
	for cand := 0; cand < n; cand++ {
		// Compare the target's signature with candidate cand's own
		// latency vector over all *other* landmarks (a landmark's
		// latency to itself is zero and would bias the metric). Vectors
		// are mean-centred first so that per-host constant delay (access
		// height) does not swamp the geographic signal — two co-located
		// hosts with different last-mile delays still match.
		var sumT, sumC float64
		m := 0
		for i := 0; i < n; i++ {
			if i == cand {
				continue
			}
			sumT += sig[i]
			sumC += s.RTT[cand][i]
			m++
		}
		if m == 0 {
			continue
		}
		meanT, meanC := sumT/float64(m), sumC/float64(m)
		var ss float64
		for i := 0; i < n; i++ {
			if i == cand {
				continue
			}
			d := (sig[i] - meanT) - (s.RTT[cand][i] - meanC)
			ss += d * d
		}
		score := math.Sqrt(ss / float64(m))
		if score < bestScore {
			bestScore, best = score, cand
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("baselines: geoping found no candidate landmark")
	}
	return &GeoPingResult{
		Target:       targetAddr,
		Point:        s.Landmarks[best].Loc,
		BestLandmark: best,
		Score:        bestScore,
	}, nil
}

// pingLandmarks pings targetAddr from every survey landmark (probes
// samples each, 0 = 10) through sched and returns each landmark's minimum
// RTT in survey order; the three baselines measure through it, each run
// on its own uncached scheduler (like NewSurvey's), so every landmark is
// measured fresh. A failure names the first failing landmark in survey
// order, and what names the technique.
func pingLandmarks(sched *measure.Scheduler, p probe.Prober, s *core.Survey, targetAddr string, probes int, what string) ([]float64, error) {
	if probes <= 0 {
		probes = 10
	}
	srcs := make([]string, s.N())
	for i, lm := range s.Landmarks {
		srcs[i] = lm.Addr
	}
	rtts := make([]float64, len(srcs))
	errs := make([]error, len(srcs))
	sched.PingMinInto(context.TODO(), p, srcs, targetAddr, probes, s.Epoch, rtts, errs)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("baselines: %s %s→%s: %w", what, s.Landmarks[i].Name, targetAddr, err)
		}
	}
	return rtts, nil
}
