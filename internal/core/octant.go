package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"octant/internal/geo"
	"octant/internal/geodb"
	"octant/internal/hints"
	"octant/internal/measure"
	"octant/internal/probe"
)

// Config controls which of the paper's mechanisms a Localizer applies.
// The zero value enables everything with the paper's defaults; the
// Disable* switches exist for the ablation benchmarks.
type Config struct {
	// Probes per latency measurement (default 10, matching §3's "10
	// time-dispersed round-trip measurements").
	Probes int

	// DisableHeights turns off §2.2 queuing-delay compensation.
	DisableHeights bool
	// DisableNegative turns off negative constraints, reducing Octant to
	// positive-information-only (the prior-work regime).
	DisableNegative bool
	// DisableWhois turns off the §2.5 WHOIS positive constraint.
	DisableWhois bool

	// GeoDB is the default passive geolocation provider the GeoDBSource
	// consults (nil — the default — skips the source; WithGeoDB
	// overrides it per request).
	GeoDB geodb.Provider

	// MeasureWorkers caps concurrent probes during measurement fan-out
	// (0 = the scheduler default, 16). One worker probes one train at a
	// time in landmark order — the serialized baseline the benchmarks
	// compare against; a negative count means one.
	MeasureWorkers int
}

func (c *Config) fillDefaults() {
	if c.Probes == 0 {
		c.Probes = 10
	}
}

// The model's fixed parameters. Each was a Config field no caller ever
// set; the values are the ones every figure, golden and benchmark was
// produced with. They are typed so that expressions over them round
// exactly as the field reads did.
const (
	// weightHalfLifeMs is the latency at which constraint confidence
	// halves (§2.4: weights decrease exponentially with latency).
	weightHalfLifeMs float64 = 20
	// padKm widens every latency constraint conservatively (§2.1): R grows
	// and r shrinks by this amount. The convex hull bounds only the
	// *observed* peer pairs exactly; unseen target pairs draw new
	// inflation noise, and the pad absorbs that generalization error.
	padKm float64 = 15
	// padFrac additionally widens constraints proportionally: inflation
	// noise scales with distance, so a 3000 km bound deserves a far larger
	// allowance than a 100 km one.
	padFrac float64 = 0.06
	// negativeWeightFactor scales down negative-constraint weights (§2.1):
	// the lower hull generalizes worse than the upper (a single fast pair
	// pins it), so exclusion claims deserve less confidence than inclusion
	// claims.
	negativeWeightFactor float64 = 0.5
	// negativeShrink scales the negative-constraint radius r(d): the lower
	// hull is the most aggressive exclusion consistent with observed
	// peers, and unseen targets routinely undershoot it.
	negativeShrink float64 = 0.75
	// minRegionAreaKm2 is the §2.4 size threshold; WithMinAreaKm2
	// overrides it per request.
	minRegionAreaKm2 float64 = 25000
	// negHeightPercentile is the excess-latency percentile used as the
	// target-height estimate when deflating latencies for negative
	// constraints. Higher percentiles deflate more, keeping exclusion radii
	// conservative for targets with indirect access paths;
	// WithNegHeightPercentile overrides it per request.
	negHeightPercentile float64 = 80
	// disagreementConflictKm is the evidence-disagreement distance above
	// which Provenance.Disagreement sets its Conflict flag —
	// different-metro territory.
	disagreementConflictKm float64 = 500

	// tracerouteLandmarks is how many of the lowest-latency landmarks
	// issue traceroutes for piecewise localization (§2.3).
	tracerouteLandmarks = 3
	// routerCityRadiusKm pads router-derived constraints for the
	// imprecision of "router is in city X" (§2.3).
	routerCityRadiusKm float64 = 60
	// routerWeightFactor scales down router-derived constraint weights:
	// secondary landmarks are slightly less trustworthy (§2.3).
	routerWeightFactor float64 = 0.9
	// maxRouterHeightDeflationMs caps how much of the solved target height
	// is subtracted from router residuals — a generous last-mile delay. A
	// solved height beyond that usually hides access-path *propagation*
	// (the target is homed far from its POP), and subtracting it would
	// turn the router constraint into a tight pin at the wrong city.
	maxRouterHeightDeflationMs float64 = 3

	// whoisRadiusKm and whoisWeight shape the §2.5 WHOIS positive
	// constraint: city-level, 85%-ish accurate evidence, so a moderate
	// weight.
	whoisRadiusKm float64 = 60
	whoisWeight   float64 = 0.8
	// rdnsRadiusKm is the positive-constraint radius around a city token
	// mined from the target's reverse-DNS name — a pool name's city code
	// places the subscriber in the metro area, not at the city centroid —
	// and rdnsWeight the weight of such a hint once RTT-validated:
	// operator naming is informative but unaudited.
	rdnsRadiusKm float64 = 100
	rdnsWeight   float64 = 0.7
	// geoDBRadiusKm is the constraint radius for geo-DB records that do
	// not state their own precision, and geoDBWeight the base weight of a
	// geo-DB prior; Weighted providers scale it by their per-provider
	// trust and staleness decay.
	geoDBRadiusKm float64 = 50
	geoDBWeight   float64 = 0.8
)

// Localizer runs Octant localizations against a prober using a calibrated
// landmark survey.
//
// A Localizer is safe for concurrent use by multiple goroutines provided
// its Prober is (both bundled probers are): Localize reads but never
// writes the Localizer, the Survey, and the Hints engine. Concurrent callers
// wanting bounded parallelism, caching, and cancellation should use the
// batch engine rather than raw goroutines.
type Localizer struct {
	Prober probe.Prober
	Survey *Survey
	Cfg    Config
	// Hints is the name→city engine: the RouterSource resolves router
	// names through it (§2.3) and the RDNSSource parses the target's
	// reverse name. Defaults to hints.NewEngine(); nil (a zero-value
	// Localizer) skips both sources.
	Hints *hints.Engine

	// masks caches rasterized §2.5 land masks across the solver's coarse
	// and fine passes and across every localization sharing this
	// Localizer (the batch engine's workers all share the one Localizer,
	// hence this one cache).
	masks *LandMaskCache

	// pctx carries the per-survey projection state (centroid frame,
	// landmark frames, projected land outlines), built once and shared by
	// every request and all batch workers, as masks is.
	pctx *ProjectionContext

	// sched is the measurement scheduler every request through this
	// Localizer fans its probes through, so per-landmark pacing budgets
	// are shared across concurrent targets.
	// Nil only for a zero-value literal, which cannot localize.
	sched *measure.Scheduler
}

// NewLocalizer builds a Localizer with the given configuration.
func NewLocalizer(p probe.Prober, s *Survey, cfg Config) *Localizer {
	cfg.fillDefaults()
	l := &Localizer{
		Prober: p,
		Survey: s,
		Cfg:    cfg,
		Hints:  hints.NewEngine(),
		masks:  NewLandMaskCache(),
		sched:  measure.New(measure.Config{Workers: cfg.MeasureWorkers}),
	}
	if s != nil && s.N() > 0 {
		l.pctx = NewProjectionContext(s)
	}
	return l
}

// NewLocalizerReusing builds a Localizer over s that inherits prev's
// land-mask cache and name→city engine instead of starting cold.
// Mask masters are keyed by projected geometry, so carrying the cache
// across survey epochs is safe: an epoch with the same landmarks projects
// identical land outlines and reuses the masters outright, while any
// geometry change keys fresh entries. The lifecycle manager uses this so
// an epoch swap does not re-rasterize the §2.5 masks on its first solves.
func NewLocalizerReusing(p probe.Prober, s *Survey, cfg Config, prev *Localizer) *Localizer {
	l := NewLocalizer(p, s, cfg)
	if prev != nil {
		if prev.masks != nil {
			l.masks = prev.masks
		}
		if prev.Hints != nil {
			l.Hints = prev.Hints
		}
		// Carry the scheduler too: its per-landmark pacing budgets span
		// epochs (the landmarks haven't changed).
		l.sched = prev.sched
	}
	return l
}

// LandMasks returns the localizer's shared land-mask cache (nil for a
// zero-value Localizer built without NewLocalizer).
func (l *Localizer) LandMasks() *LandMaskCache { return l.masks }

// MeasureScheduler returns the localizer's measurement scheduler (nil only
// for a zero-value literal). Serving stacks read its Stats for /v1/stats.
func (l *Localizer) MeasureScheduler() *measure.Scheduler { return l.sched }

// Result is one localization outcome.
type Result struct {
	Target string
	// Point is the final point estimate.
	Point geo.Point
	// Region is the estimated location region β in the projection plane.
	Region *geo.Region
	// Projection maps Region to/from geographic coordinates.
	Projection *geo.Projection
	// AreaKm2 is Region's area.
	AreaKm2 float64
	// TargetHeightMs is the solved §2.2 height of the target.
	TargetHeightMs float64
	// RTTs holds the raw min-filtered RTT from each survey landmark.
	RTTs []float64
	// Constraints are the constraints the solver consumed.
	Constraints []Constraint
	// Weight is the captured constraint weight of the solution.
	Weight float64
	// Provenance explains how the evidence pipeline assembled this
	// result (per-source constraint counts, weights, area contributions,
	// timings). Nil unless the request asked for it with WithExplain —
	// or the result is degraded, in which case a minimal Provenance
	// naming the failed landmarks (Failures) is always attached.
	Provenance *Provenance
	// Degraded marks a result computed from partial evidence: one or
	// more landmark measurements failed, but at least the request's
	// quorum (WithMinLandmarks) answered. The failed landmarks and their
	// reasons are in Provenance.Failures. Degraded results are served
	// but never cached by the batch engine or the cluster tiers — a
	// healthy re-measurement should replace them.
	Degraded bool
}

// ContainsTruth reports whether the true location falls inside the
// estimated region — the Figure 4 success metric.
func (r *Result) ContainsTruth(truth geo.Point) bool {
	if r.Region.IsEmpty() {
		return false
	}
	return r.Region.Contains(r.Projection.Forward(truth))
}

// LocalizeContext estimates the position of target. ctx bounds every
// measurement the request issues (cancellation is observed at each
// probe call, mid-measurement for probers implementing
// probe.ContextProber), and opts tune this request without touching the
// shared Localizer: evidence sources can be disabled or down-weighted,
// solver thresholds overridden, exogenous hints and caller constraints
// added, a secondary landmark folded in, and provenance requested.
func (l *Localizer) LocalizeContext(ctx context.Context, target string, opts ...LocalizeOption) (*Result, error) {
	if len(opts) == 0 {
		return l.LocalizeWith(ctx, target, nil)
	}
	o := NewLocalizeOptions(opts...)
	return l.LocalizeWith(ctx, target, &o)
}

// LocalizeWith is LocalizeContext over pre-resolved options: callers
// dispatching many requests under one tuning resolve and fingerprint the
// options once and reuse them. A nil o means defaults. It is a group of
// one target (see localizeBatch), run on the caller's goroutine.
func (l *Localizer) LocalizeWith(ctx context.Context, target string, o *LocalizeOptions) (res *Result, err error) {
	l.localizeBatch(ctx, []string{target}, 1, 0, o, func(_ int, r *Result, e error) { res, err = r, e })
	return res, err
}

// localizeRequest runs the evidence pipeline and solve for one Request
// assembled by localizeBatch.
func (l *Localizer) localizeRequest(ctx context.Context, req *Request) (*Result, error) {
	explain := req.Opts.Explain
	var prov *Provenance
	if explain {
		prov = &Provenance{}
	}

	// Evidence pipeline: each source contributes weighted constraints
	// in a fixed order (latency, router, hint, the cross-validated priors,
	// geography, then any request-scoped extra sources).
	var constraints []Constraint
	for _, srcs := range [2][]EvidenceSource{defaultSources[:], req.Opts.ExtraSources} {
		for _, src := range srcs {
			// The LatencySource handles its own disable internally: it
			// must still measure for downstream sources.
			if src != (LatencySource{}) && req.Opts.sourceOff(src.Name()) {
				if explain {
					prov.Sources = append(prov.Sources, SourceReport{Source: src.Name(), Skipped: "disabled by request"})
				}
				continue
			}
			cs, rep, err := runSource(ctx, src, req, req.Opts.scaleFor(src.Name()), explain)
			if err != nil {
				return nil, err
			}
			constraints = appendConstraints(constraints, cs)
			if explain {
				prov.Sources = append(prov.Sources, rep)
			}
		}
	}
	if n := len(req.Opts.Extra); n > 0 {
		constraints = append(constraints, req.Opts.Extra...)
		if explain {
			prov.ExtraConstraints = n
		}
	}
	if len(constraints) == 0 {
		return nil, fmt.Errorf("core: no usable constraints for %s", req.Target)
	}

	if req.Opts.Secondary != nil {
		// Behind the check above: a secondary landmark alone does not
		// make a request solvable. The source returns no error.
		cs, rep, _ := runSource(ctx, secondarySource{}, req, 1, explain)
		constraints = append(constraints, cs...)
		if explain {
			prov.Sources = append(prov.Sources, rep)
		}
	}

	// Solve (§2.4), masking oceans (§2.5) when the GeographySource ran.
	sopts := SolverOpts{MinAreaKm2: minRegionAreaKm2, LandRegions: req.Land, Masks: l.masks}
	if req.Opts.MinAreaKm2 > 0 {
		sopts.MinAreaKm2 = req.Opts.MinAreaKm2
	}
	if req.Opts.FineCellKm > 0 {
		sopts.FineCellKm = req.Opts.FineCellKm
	}
	var t0 time.Time
	if explain {
		t0 = time.Now()
	}
	sol, err := Solve(constraints, sopts)
	if err != nil {
		return nil, err
	}
	if explain {
		prov.SolveMs = float64(time.Since(t0)) / float64(time.Millisecond)
		prov.TotalConstraints = len(constraints)
		for i := range prov.Sources {
			prov.MeasureMs += prov.Sources[i].MeasureMs
		}
	}
	if len(req.Failures) > 0 {
		// A degraded result must name its missing evidence even when the
		// caller did not ask for provenance.
		if prov == nil {
			prov = &Provenance{TotalConstraints: len(constraints)}
		}
		prov.Failures = req.Failures
	}
	if len(req.dropped) > 0 || len(req.hintLocs) > 0 || len(req.geodbLocs) > 0 {
		// Discarded or applied exogenous priors must be reported even
		// without WithExplain, same contract as degraded-mode Failures.
		// The default path (no hints, no provider) never reaches here.
		if prov == nil {
			prov = &Provenance{TotalConstraints: len(constraints)}
		}
		prov.DroppedHints = req.dropped
		prov.Disagreement = req.disagreement()
	}
	pr := req.PCtx.Proj
	res := &Result{
		Target:         req.Target,
		Region:         sol.Region,
		Projection:     pr,
		AreaKm2:        sol.Region.Area(),
		TargetHeightMs: req.TargetHeightMs,
		RTTs:           req.RTTs,
		Constraints:    constraints,
		Weight:         sol.Weight,
		Provenance:     prov,
		Degraded:       len(req.Failures) > 0,
	}
	if sol.Region.IsEmpty() {
		// An empty estimate is reported honestly, with a NaN point.
		res.Point = geo.Pt(math.NaN(), math.NaN())
	} else {
		res.Point = pr.Inverse(sol.Point)
	}
	return res, nil
}

// runSource invokes one pipeline stage, applies the weight scale to its
// constraints, and (when provenance was requested) fills the report's
// quantitative fields.
func runSource(ctx context.Context, src EvidenceSource, req *Request, scale float64, explain bool) ([]Constraint, SourceReport, error) {
	var t0 time.Time
	if explain {
		t0 = time.Now()
	}
	cs, rep, err := src.Constraints(ctx, req)
	if err != nil {
		return nil, rep, err
	}
	if rep.Source == "" {
		rep.Source = src.Name()
	}
	if scale != 1 {
		for i := range cs {
			cs[i].Weight *= scale
		}
	}
	if explain {
		rep.Constraints = len(cs)
		rep.WeightScale = scale
		for i := range cs {
			rep.Weight += cs[i].Weight
			if cs[i].Kind == Positive {
				rep.AreaKm2 += cs[i].Region.Area()
			}
		}
		rep.ElapsedMs = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	return cs, rep, nil
}

// appendConstraints grows acc by cs, taking ownership of the first
// non-empty slice outright (sources hand their results over) so the
// common path allocates exactly like the pre-pipeline monolith.
func appendConstraints(acc, cs []Constraint) []Constraint {
	if len(cs) == 0 {
		return acc
	}
	if acc == nil {
		return cs
	}
	return append(acc, cs...)
}

// secondarySource turns a §2 secondary landmark — a node whose own
// position is only known as an estimated region β, e.g. a previously
// localized router — into ordinary constraints: β dilated by R(d) is
// positive, and the points within r(d) of all of β are negative. It runs
// only for a request carrying WithSecondary, after every other source,
// with no weight scale; "secondary" names no source the options accept.
type secondarySource struct{}

// Name implements EvidenceSource.
func (secondarySource) Name() string { return "secondary" }

// Constraints implements EvidenceSource.
func (secondarySource) Constraints(_ context.Context, req *Request) ([]Constraint, SourceReport, error) {
	sec := req.Opts.Secondary
	minKm, maxKm := req.Survey.Global.Band(sec.RTTMs)
	w := LatencyWeight(sec.RTTMs, weightHalfLifeMs) * routerWeightFactor
	cs := []Constraint{PositiveFromRegion(sec.Beta, maxKm, w, "secondary")}
	if !req.Cfg.DisableNegative && minKm > 0 {
		if neg := negativeFromRegion(sec.Beta, minKm, w, "secondary/neg", req.masks); !neg.Region.IsEmpty() {
			cs = append(cs, neg)
		}
	}
	return cs, SourceReport{}, nil
}
