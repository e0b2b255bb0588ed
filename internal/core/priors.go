package core

import (
	"context"
	"fmt"
	"math"

	"octant/internal/geo"
	"octant/internal/geodb"
)

// Cross-validated exogenous priors: the RDNSSource (HLOC-style reverse-
// name hints) and GeoDBSource (passive geolocation databases). Both turn
// third-party location claims into weighted positive disks — and both
// check each claim against the speed-of-light bound implied by the
// landmark RTTs the LatencySource already measured: a landmark r ms from
// the target cannot be farther than LatencyToMaxDistanceKm(r) from it,
// so a claimed disk entirely outside that bound is physically impossible
// and is dropped (recorded in Provenance.DroppedHints, never applied).
// This is what makes hint evidence safe: a recycled pool name or a stale
// database row costs the hint, not the answer.

// DroppedHint records one exogenous prior the RTT cross-validation
// rejected.
type DroppedHint struct {
	// Hint labels the rejected prior the way its constraint would have
	// been labelled ("rdns:chi", "geodb:synth").
	Hint string `json:"hint"`
	// Reason states the speed-of-light violation.
	Reason string `json:"reason"`
}

// Disagreement quantifies how far the applied exogenous priors and the
// latency evidence point apart: pairwise distances between the hint
// centroid, the geo-DB centroid, and the latency anchor (the
// lowest-RTT landmark's position — the cheapest latency-only proxy for
// where the measurements put the target). Absent pairs (a request with
// no geo-DB record, say) report 0.
type Disagreement struct {
	// HintGeoDBKm is the distance between the rDNS-hint centroid and the
	// geo-DB centroid.
	HintGeoDBKm float64 `json:"hint_geodb_km,omitempty"`
	// HintLatencyKm is the distance between the rDNS-hint centroid and
	// the latency anchor.
	HintLatencyKm float64 `json:"hint_latency_km,omitempty"`
	// GeoDBLatencyKm is the distance between the geo-DB centroid and the
	// latency anchor.
	GeoDBLatencyKm float64 `json:"geodb_latency_km,omitempty"`
	// DisagreementKm is the largest of the pairwise distances present.
	DisagreementKm float64 `json:"disagreement_km"`
	// Conflict marks a disagreement beyond 500 km
	// — evidence classes pointing at different metros, worth surfacing
	// to operators (/v1/stats counts these).
	Conflict bool `json:"conflict,omitempty"`
}

// validatePrior checks a claimed position against the speed-of-light
// bounds from the measured landmark RTTs (HLOC's validation rule): the
// disk of radiusKm around loc must intersect every answering landmark's
// feasible disk. It returns "" when feasible, else the violation. With
// no RTT vector (latency source unmeasured) every claim passes —
// there is nothing to validate against.
func (req *Request) validatePrior(loc geo.Point, radiusKm float64) string {
	s := req.Survey
	if len(req.RTTs) != s.N() {
		return ""
	}
	for i, lm := range s.Landmarks {
		r := req.RTTs[i]
		if math.IsNaN(r) {
			continue // failed landmark (degraded mode)
		}
		bound := geo.LatencyToMaxDistanceKm(r)
		if d := lm.Loc.DistanceKm(loc); d-radiusKm > bound {
			return fmt.Sprintf("claimed position %.0f km from %s but %.2f ms RTT bounds the target to %.0f km",
				d, lm.Name, r, bound)
		}
	}
	return ""
}

// latencyAnchor returns the lowest-RTT landmark's position — the
// latency-only reference point for the disagreement report. ok is false
// when no landmark answered.
func (req *Request) latencyAnchor() (geo.Point, bool) {
	best := math.NaN()
	var loc geo.Point
	ok := false
	for i, r := range req.RTTs {
		if math.IsNaN(r) {
			continue
		}
		if !ok || r < best {
			best, loc, ok = r, req.Survey.Landmarks[i].Loc, true
		}
	}
	return loc, ok
}

// disagreement assembles the Disagreement report from the request's
// applied prior centres, or nil when no prior was applied.
func (req *Request) disagreement() *Disagreement {
	if len(req.hintLocs) == 0 && len(req.geodbLocs) == 0 {
		return nil
	}
	d := &Disagreement{}
	var hintC, geodbC geo.Point
	if len(req.hintLocs) > 0 {
		hintC = geo.Centroid(req.hintLocs)
	}
	if len(req.geodbLocs) > 0 {
		geodbC = geo.Centroid(req.geodbLocs)
	}
	anchor, haveAnchor := req.latencyAnchor()
	if len(req.hintLocs) > 0 && len(req.geodbLocs) > 0 {
		d.HintGeoDBKm = hintC.DistanceKm(geodbC)
	}
	if len(req.hintLocs) > 0 && haveAnchor {
		d.HintLatencyKm = hintC.DistanceKm(anchor)
	}
	if len(req.geodbLocs) > 0 && haveAnchor {
		d.GeoDBLatencyKm = geodbC.DistanceKm(anchor)
	}
	d.DisagreementKm = math.Max(d.HintGeoDBKm, math.Max(d.HintLatencyKm, d.GeoDBLatencyKm))
	d.Conflict = d.DisagreementKm > disagreementConflictKm
	return d
}

// RDNSSource mines the target's reverse-DNS name for city tokens (IATA
// airport codes, CLLI prefixes, spelled-out names) and applies each
// surviving hint as a weighted positive disk. Hints that violate the
// RTT speed-of-light bound are dropped and recorded.
type RDNSSource struct{}

// Name implements EvidenceSource.
func (RDNSSource) Name() string { return SourceRDNS }

// Constraints implements EvidenceSource.
func (RDNSSource) Constraints(ctx context.Context, req *Request) ([]Constraint, SourceReport, error) {
	rep := SourceReport{Source: SourceRDNS}
	if req.Hints == nil {
		rep.Skipped = "no hint engine"
		return nil, rep, nil
	}
	name := req.Prober.ReverseDNS(req.Target)
	if name == "" {
		rep.Skipped = "no reverse name"
		return nil, rep, nil
	}
	hs := req.Hints.Parse(name)
	if len(hs) == 0 {
		rep.Skipped = "no geographic tokens in reverse name"
		return nil, rep, nil
	}
	var out []Constraint
	for _, h := range hs {
		label := "rdns:" + h.Code
		if reason := req.validatePrior(h.Loc, rdnsRadiusKm); reason != "" {
			req.dropped = append(req.dropped, DroppedHint{Hint: label, Reason: reason})
			continue
		}
		out = append(out, req.priorDisk(h.Loc, rdnsRadiusKm, rdnsWeight, label))
		req.hintLocs = append(req.hintLocs, h.Loc)
	}
	if len(out) == 0 {
		rep.Skipped = "all hints dropped by RTT cross-validation"
	}
	return out, rep, nil
}

// GeoDBSource consults the request's passive geolocation provider
// (WithGeoDB, falling back to Config.GeoDB) and applies its record for
// the target as a weighted positive disk. Records that violate the RTT
// speed-of-light bound are dropped and recorded. Weighted providers
// (the geodb.Composite) scale the configured base weight by their own
// per-provider trust and staleness decay.
type GeoDBSource struct{}

// Name implements EvidenceSource.
func (GeoDBSource) Name() string { return SourceGeoDB }

// Constraints implements EvidenceSource.
func (GeoDBSource) Constraints(ctx context.Context, req *Request) ([]Constraint, SourceReport, error) {
	rep := SourceReport{Source: SourceGeoDB}
	provider := req.Opts.GeoDB
	if provider == nil {
		provider = req.Cfg.GeoDB
	}
	if provider == nil {
		rep.Skipped = "no provider configured"
		return nil, rep, nil
	}
	var rec geodb.Record
	var trust float64
	var ok bool
	if wp, isW := provider.(geodb.Weighted); isW {
		rec, trust, ok = wp.LookupWeighted(req.Target)
	} else {
		rec, ok = provider.Lookup(req.Target)
	}
	if !ok {
		rep.Skipped = "no record for target"
		return nil, rep, nil
	}
	radius := rec.RadiusKm
	if radius <= 0 {
		radius = geoDBRadiusKm
	}
	weight := geoDBWeight
	if trust > 0 {
		weight *= trust
	}
	source := rec.Source
	if source == "" {
		source = provider.Name()
	}
	label := "geodb:" + source
	if reason := req.validatePrior(rec.Loc, radius); reason != "" {
		req.dropped = append(req.dropped, DroppedHint{Hint: label, Reason: reason})
		rep.Skipped = "record dropped by RTT cross-validation"
		return nil, rep, nil
	}
	req.geodbLocs = append(req.geodbLocs, rec.Loc)
	return []Constraint{req.priorDisk(rec.Loc, radius, weight, label)}, rep, nil
}
