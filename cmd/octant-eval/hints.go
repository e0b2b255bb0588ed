package main

import (
	"context"
	"fmt"
	"io"

	"octant/internal/core"
	"octant/internal/geodb"
	"octant/internal/netsim"
	"octant/internal/probe"
	"octant/internal/stats"
)

// runHints is the -hints mode: score the hint-rich evidence stages (rDNS
// gazetteer hints + passive geo-DB priors) against the latency-only
// pipeline on two synthetic worlds.
//
// Leg 1 (truthful): a world whose eligible end hosts carry hint-bearing
// reverse names and a fresh synthetic geo-DB. Gate: the hint-enabled
// median error must not exceed the hint-free baseline on the same
// survey — honest exogenous evidence may only help.
//
// Leg 2 (adversarial): every reverse-name hint and every geo-DB record
// points ≥ 1500 km away from the truth. Gate: the RTT cross-validation
// must actually fire (dropped priors observed in Provenance), and the
// poisoned median must stay within wrongTolerance of the hint-free
// baseline — bad hints cost the hint, not the answer.
func runHints(stdout io.Writer, seed uint64) error {
	const (
		hold           = 16
		hintFrac       = 0.85
		wrongTolerance = 0.10
	)

	truthful, err := newHintLeg(netsim.Config{Seed: seed, HostRDNSHintFrac: hintFrac}, hold,
		func(w *netsim.World) geodb.Provider {
			return geodb.NewSynth(w, geodb.SynthOpts{Seed: seed})
		})
	if err != nil {
		return err
	}
	poisoned, err := newHintLeg(netsim.Config{Seed: seed, HostRDNSHintFrac: hintFrac, HostRDNSWrongFrac: 1}, hold,
		func(w *netsim.World) geodb.Provider {
			return geodb.NewSynth(w, geodb.SynthOpts{Seed: seed, WrongFrac: 1})
		})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "hints: truthful median %.1f km hinted vs %.1f km baseline; poisoned median %.1f km hinted vs %.1f km baseline, %d priors dropped\n",
		truthful.hintedMedianKm, truthful.baseMedianKm,
		poisoned.hintedMedianKm, poisoned.baseMedianKm, poisoned.dropped)

	if truthful.hintedMedianKm > truthful.baseMedianKm {
		return fmt.Errorf("hints gate: truthful hints worsened the median: %.2f km hinted vs %.2f km baseline",
			truthful.hintedMedianKm, truthful.baseMedianKm)
	}
	if poisoned.dropped == 0 {
		return fmt.Errorf("hints gate: poisoned world produced no cross-validation drops — the RTT bound never fired")
	}
	if poisoned.hintedMedianKm > poisoned.baseMedianKm*(1+wrongTolerance) {
		return fmt.Errorf("hints gate: poisoned hints degraded the median beyond %.0f%%: %.2f km hinted vs %.2f km baseline",
			100*wrongTolerance, poisoned.hintedMedianKm, poisoned.baseMedianKm)
	}
	fmt.Fprintln(stdout, "hints: gates OK")
	return nil
}

// hintLeg is one world's scored pass: median error with the full
// hint-rich pipeline vs the same survey with rdns+geodb disabled.
type hintLeg struct {
	hintedMedianKm float64
	baseMedianKm   float64
	// dropped counts exogenous priors the RTT cross-validation rejected
	// across the hinted pass (Provenance.DroppedHints).
	dropped int
}

// newHintLeg builds a world, holds the first hold hosts out of the survey
// as targets, and localizes each twice: once with the hint stages live
// (geo-DB from mkDB), once with both disabled. Both passes share one
// survey, so the delta is purely the exogenous evidence.
func newHintLeg(cfg netsim.Config, hold int, mkDB func(*netsim.World) geodb.Provider) (*hintLeg, error) {
	world := netsim.NewWorld(cfg)
	prober := probe.NewSimProber(world)
	hosts := world.HostNodes()
	if hold >= len(hosts) {
		return nil, fmt.Errorf("hints: hold %d leaves no landmarks (have %d hosts)", hold, len(hosts))
	}
	var lms []core.Landmark
	for _, h := range hosts[hold:] {
		lms = append(lms, core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	survey, err := core.NewSurvey(prober, lms, core.SurveyOpts{UseHeights: true})
	if err != nil {
		return nil, err
	}
	hinted := core.NewLocalizer(prober, survey, core.Config{GeoDB: mkDB(world)})
	base := core.NewLocalizer(prober, survey, core.Config{})
	baseOpts := []core.LocalizeOption{
		core.WithoutSource(core.SourceRDNS),
		core.WithoutSource(core.SourceGeoDB),
	}

	ctx := context.Background()
	leg := &hintLeg{}
	var hintedErrs, baseErrs []float64
	for _, h := range hosts[:hold] {
		hres, err := hinted.LocalizeContext(ctx, h.Name)
		if err != nil {
			return nil, fmt.Errorf("hints: hinted %s: %w", h.Name, err)
		}
		hintedErrs = append(hintedErrs, hres.Point.DistanceKm(h.Loc))
		if hres.Provenance != nil {
			leg.dropped += len(hres.Provenance.DroppedHints)
		}
		bres, err := base.LocalizeContext(ctx, h.Name, baseOpts...)
		if err != nil {
			return nil, fmt.Errorf("hints: baseline %s: %w", h.Name, err)
		}
		baseErrs = append(baseErrs, bres.Point.DistanceKm(h.Loc))
	}
	leg.hintedMedianKm = stats.Percentile(hintedErrs, 50)
	leg.baseMedianKm = stats.Percentile(baseErrs, 50)
	return leg, nil
}
