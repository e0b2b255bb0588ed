package baselines

import (
	"context"
	"fmt"

	"octant/internal/core"
	"octant/internal/geo"
	"octant/internal/hints"
	"octant/internal/measure"
	"octant/internal/probe"
)

// GeoTrack (IP2Geo) traceroutes to the target, extracts geographic hints
// from router DNS names, and localizes the target at the last router on
// the path whose position is known. It reads names through the same
// engine Octant's router source does, so the two see the same routers.
type GeoTrack struct {
	Survey   *core.Survey
	Resolver *hints.Engine
}

// NewGeoTrack wraps a survey with the default name→city engine.
func NewGeoTrack(s *core.Survey) *GeoTrack {
	return &GeoTrack{Survey: s, Resolver: hints.NewEngine()}
}

// GeoTrackResult is a GeoTrack outcome.
type GeoTrackResult struct {
	Target string
	Point  geo.Point
	// RouterName is the DNS name of the last resolvable router.
	RouterName string
	// City is the city the last resolvable router name carries.
	City string
	// Hops is the traceroute length used.
	Hops int
}

// Localize traceroutes from the lowest-latency landmark to the target and
// returns the last resolvable router's city as the estimate.
func (g *GeoTrack) Localize(p probe.Prober, targetAddr string, probes int) (*GeoTrackResult, error) {
	s := g.Survey
	sched := measure.New(measure.Config{})
	rtts, err := pingLandmarks(sched, p, s, targetAddr, probes, "geotrack ping")
	if err != nil {
		return nil, err
	}
	// Pick the landmark closest to the target by latency: its traceroute
	// shares the most suffix with the target's location.
	bestIdx := 0
	for i, rtt := range rtts {
		if rtt < rtts[bestIdx] {
			bestIdx = i
		}
	}
	hopLists, errs := make([][]probe.Hop, 1), make([]error, 1)
	sched.TracerouteInto(context.TODO(), p, []string{s.Landmarks[bestIdx].Addr}, targetAddr, hopLists, errs)
	if errs[0] != nil {
		return nil, fmt.Errorf("baselines: geotrack traceroute: %w", errs[0])
	}
	hops := hopLists[0]
	if len(hops) == 0 {
		return nil, fmt.Errorf("baselines: geotrack got an empty traceroute to %s", targetAddr)
	}
	var out *GeoTrackResult
	for _, h := range hops[:max(len(hops)-1, 0)] { // exclude the target itself
		if loc, ok := g.Resolver.Resolve(h.Name); ok {
			out = &GeoTrackResult{
				Target:     targetAddr,
				Point:      loc.Loc,
				RouterName: h.Name,
				City:       loc.City,
				Hops:       len(hops),
			}
		}
	}
	if out == nil {
		// No resolvable router: fall back to the probing landmark's own
		// location (the technique's weakest case).
		out = &GeoTrackResult{
			Target: targetAddr,
			Point:  s.Landmarks[bestIdx].Loc,
			City:   "",
			Hops:   len(hops),
		}
	}
	return out, nil
}
