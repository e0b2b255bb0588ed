package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"octant/internal/geo"
	"octant/internal/height"
	"octant/internal/hints"
	"octant/internal/measure"
	"octant/internal/probe"
	"octant/internal/stats"
)

// Built-in evidence source names, usable with WithoutSource and
// WithSourceWeight.
const (
	// SourceLatency is the §2.1–2.2 landmark RTT evidence: one positive
	// disk (R(d)) and, when informative, one negative disk (r(d)) per
	// landmark, height-adjusted.
	SourceLatency = "latency"
	// SourceRouter is the §2.3 piecewise router evidence from
	// traceroutes out of the lowest-latency landmarks.
	SourceRouter = "router"
	// SourceHint is the §2.5 exogenous positive evidence: the WHOIS
	// registration record plus any caller-supplied Hints.
	SourceHint = "hint"
	// SourceRDNS is the HLOC-style reverse-DNS hint evidence: city
	// tokens (IATA/CLLI/name) mined from the target's reverse name,
	// RTT-cross-validated before use.
	SourceRDNS = "rdns"
	// SourceGeoDB is the passive geolocation-database evidence: a
	// pluggable provider's record for the target, RTT-cross-validated
	// and applied as a weighted positive prior.
	SourceGeoDB = "geodb"
	// SourceGeography is the §2.5 ocean/uninhabitable negative evidence,
	// applied as the solver's hard land mask.
	SourceGeography = "geography"
)

// Request is the per-request state threaded through the evidence
// pipeline. Sources read the immutable survey context (Survey, PCtx,
// Cfg, Opts) and communicate through the measurement fields: the
// LatencySource fills RTTs/AdjPos/AdjNeg/TargetHeightMs for everything
// downstream, and the GeographySource sets Land for the solver.
//
// A Request lives for exactly one localization and is not retained by
// the pipeline afterwards; custom sources must not keep references to it.
type Request struct {
	// Target is the address being localized.
	Target string
	// Cfg is the Localizer's Config with defaults filled.
	Cfg Config
	// Opts are the request's resolved options.
	Opts LocalizeOptions
	// Survey is the (immutable) calibrated landmark survey.
	Survey *Survey
	// PCtx is the survey's shared projection context.
	PCtx *ProjectionContext
	// Prober is the Localizer's prober, shared by every request and not
	// bound to any request's context. A source that measures through it
	// directly binds the ctx it is handed to observe cancellation
	// (octant.ProberWithContext(ctx, req.Prober)); the scheduler does so
	// for the latency and router sources.
	Prober probe.Prober
	// Hints maps router names to cities for the RouterSource and parses
	// the target's reverse name for the RDNSSource. Nil means both skip
	// (a zero-value Localizer has no engine).
	Hints *hints.Engine

	// RTTs is the min-filtered RTT from each survey landmark, in
	// landmark order. Filled by the LatencySource.
	RTTs []float64
	// AdjPos and AdjNeg are the height-adjusted RTT vectors for
	// positive and negative constraints (§2.2's conservative asymmetry).
	AdjPos, AdjNeg []float64
	// TargetHeightMs is the solved target height (0 when heights are
	// disabled or the solve failed).
	TargetHeightMs float64

	// Land is the solver's hard geographic mask (nil = no mask). Set by
	// the GeographySource from the projection context.
	Land []*geo.Region

	// Failures collects the per-landmark measurement failures the
	// LatencySource absorbed instead of aborting. Non-empty marks the
	// request degraded: the result carries partial evidence, and the
	// failed landmarks' RTT slots hold NaN, which every downstream
	// consumer skips.
	Failures []ProbeFailure

	// sched is the Localizer's measurement scheduler: the LatencySource
	// fans its landmark pings and the RouterSource its traceroutes
	// through it.
	sched *measure.Scheduler

	// masks is the Localizer's LandMaskCache: the secondary landmark's
	// feasibility solve draws its scratch from it.
	masks *LandMaskCache

	// Exogenous-prior bookkeeping for the disagreement report: the
	// applied hint and geo-DB disk centres, and every hint/record the
	// RTT cross-validation dropped. All empty on the default path.
	hintLocs  []geo.Point
	geodbLocs []geo.Point
	dropped   []DroppedHint
}

// priorDisk builds the standard positive disk about a claimed location —
// shared by the router, WHOIS, caller-hint, rDNS-hint, and geo-DB sources,
// so the prior-style evidence classes stay geometrically consistent.
func (req *Request) priorDisk(loc geo.Point, radiusKm, weight float64, label string) Constraint {
	lf := geo.NewFrame(loc)
	return diskConstraint(Positive, &req.PCtx.Center, &lf, radiusKm, weight, label)
}

// SourceReport is one evidence source's provenance entry. Sources fill
// Source and (when they decline to run) Skipped; the pipeline fills the
// quantitative fields when the request asked for provenance.
type SourceReport struct {
	// Source is the source's Name().
	Source string `json:"source"`
	// Constraints is how many constraints the source contributed.
	Constraints int `json:"constraints"`
	// Weight is the total weight of the contributed constraints (after
	// scaling).
	Weight float64 `json:"weight"`
	// AreaKm2 is the summed area of the source's positive constraint
	// regions — its gross area contribution before combination.
	AreaKm2 float64 `json:"area_km2"`
	// WeightScale is the per-request scale applied to the source's
	// weights (1 when untuned).
	WeightScale float64 `json:"weight_scale,omitempty"`
	// ElapsedMs is the source's wall time, measurements included.
	ElapsedMs float64 `json:"elapsed_ms"`
	// MeasureMs is the share of ElapsedMs spent waiting on the network
	// (ping fan-out, traceroutes); ElapsedMs − MeasureMs is constraint
	// construction. Filled only when provenance was requested, and only
	// by the measuring sources (latency, router).
	MeasureMs float64 `json:"measure_ms,omitempty"`
	// Skipped is the reason the source contributed nothing ("" if it ran).
	Skipped string `json:"skipped,omitempty"`
	// Failures lists per-landmark measurement failures the source
	// absorbed instead of aborting the request: ping failures the
	// LatencySource degraded around, traceroutes the RouterSource
	// skipped with reason.
	Failures []ProbeFailure `json:"failures,omitempty"`
}

// ProbeFailure records one landmark whose measurement failed during a
// request, and why. Degraded-mode localization proceeds without that
// landmark's evidence and surfaces the failure in SourceReport.Failures
// and Provenance.Failures rather than aborting — the paper's weighted
// framework exists precisely to aggregate partial, noisy evidence.
type ProbeFailure struct {
	// Landmark is the failed landmark's name.
	Landmark string `json:"landmark"`
	// Reason is the underlying measurement error.
	Reason string `json:"reason"`
}

// Provenance explains how a localization was assembled; requested with
// WithExplain and returned in Result.Provenance.
type Provenance struct {
	// Sources reports every pipeline stage in execution order.
	Sources []SourceReport `json:"sources"`
	// ExtraConstraints counts caller-supplied constraints
	// (WithConstraints).
	ExtraConstraints int `json:"extra_constraints,omitempty"`
	// TotalConstraints is the size of the solved constraint system.
	TotalConstraints int `json:"total_constraints"`
	// SolveMs is the §2.4 solver's wall time.
	SolveMs float64 `json:"solve_ms"`
	// MeasureMs is the request's total measurement wall time (the sum of
	// the sources' MeasureMs) — the measure-vs-solve split that shows
	// where a paced deployment's latency actually goes.
	MeasureMs float64 `json:"measure_ms,omitempty"`
	// Failures names every landmark whose measurement failed when the
	// result is degraded. Unlike the rest of the provenance it is filled
	// even without WithExplain: a degraded result must always say which
	// evidence it is missing.
	Failures []ProbeFailure `json:"failures,omitempty"`
	// DroppedHints names every rDNS hint and geo-DB record the RTT
	// cross-validation rejected. Like Failures it is filled even without
	// WithExplain: evidence that was discarded must always say so.
	DroppedHints []DroppedHint `json:"dropped_hints,omitempty"`
	// Disagreement quantifies how far the request's exogenous priors and
	// its latency evidence point apart. Nil when the request applied no
	// hint or geo-DB prior; like DroppedHints it is filled even without
	// WithExplain.
	Disagreement *Disagreement `json:"disagreement,omitempty"`
}

// EvidenceSource is one stage of the localization pipeline: it converts
// the request's state into weighted constraints (§2.4 treats every
// information class — latency, routers, geography, exogenous hints — as
// constraints in one system, each weighted by confidence).
//
// Implementations must be safe for concurrent use across requests: the
// built-ins are stateless, and custom sources should keep per-request
// state on the Request, not on themselves. A source may also communicate
// with later stages by setting Request fields (the LatencySource fills
// the RTT vectors this way; the GeographySource sets the land mask).
type EvidenceSource interface {
	// Name identifies the source for options (WithoutSource,
	// WithSourceWeight) and provenance.
	Name() string
	// Constraints contributes the source's evidence for the request.
	// The returned report carries at least the source name; the
	// pipeline fills the quantitative provenance fields. Returning an
	// error aborts the localization.
	Constraints(ctx context.Context, req *Request) ([]Constraint, SourceReport, error)
}

// defaultSources is the paper's pipeline, in evidence order. The
// GeographySource runs last but contributes no constraints (it sets the
// solver mask), so constraint order matches the original monolithic
// Localize exactly: latency, router, hint, then the cross-validated
// priors (rdns, geodb) — both of which contribute nothing unless the
// target's reverse name carries a city token or a provider is
// configured, keeping the default path bit-identical to the
// pre-prior pipeline.
var defaultSources = [...]EvidenceSource{
	LatencySource{}, RouterSource{}, HintSource{}, RDNSSource{}, GeoDBSource{}, GeographySource{},
}

// DefaultSources returns the built-in evidence pipeline in execution
// order: LatencySource, RouterSource, HintSource, RDNSSource,
// GeoDBSource, GeographySource.
func DefaultSources() []EvidenceSource {
	out := make([]EvidenceSource, len(defaultSources))
	copy(out, defaultSources[:])
	return out
}

// LatencySource measures the target from every survey landmark and
// converts each RTT into the §2.1 positive/negative disk pair,
// height-adjusted per §2.2. It always measures — even when disabled by
// options — because every downstream source (router ranking, height
// deflation) consumes its RTT vector; disabling it only suppresses the
// constraints.
type LatencySource struct{}

// Name implements EvidenceSource.
func (LatencySource) Name() string { return SourceLatency }

// Constraints implements EvidenceSource.
func (LatencySource) Constraints(ctx context.Context, req *Request) ([]Constraint, SourceReport, error) {
	rep := SourceReport{Source: SourceLatency}
	s := req.Survey
	cfg := &req.Cfg
	n := s.N()

	// One backing array for the three RTT vectors: they are always
	// allocated together and the result retains only RTTs (the capped
	// sub-slices keep appends from aliasing).
	buf := make([]float64, 3*n)
	rtts := buf[:n:n]
	adjPos := buf[n : 2*n : 2*n]
	adjNeg := buf[2*n:]

	// 1. Measure the target from every landmark. A landmark that fails
	// to answer is recorded, not fatal: the paper's weighted framework
	// exists to aggregate partial evidence, so the request proceeds in
	// degraded mode as long as the quorum below holds. The failed
	// landmark's RTT slot is NaN, which every downstream consumer (the
	// height solve, the constraint loop, router ranking) skips. Only
	// the caller's own context expiring aborts — the caller is gone, so
	// there is no one to serve a degraded answer to.
	//
	// The pings fan out through the measurement scheduler, whose
	// slot-indexed placement keeps completion order out of the outputs:
	// slots, failure lists and abort errors are in landmark order.
	for _, lm := range s.Landmarks {
		if lm.Addr == req.Target {
			return nil, rep, fmt.Errorf("core: target %s is landmark %s; exclude it from the survey first", req.Target, lm.Name)
		}
	}
	var failures []ProbeFailure
	timing := req.Opts.Explain
	var mt0 time.Time
	if timing {
		mt0 = time.Now()
	}
	perrs := make([]error, n)
	req.sched.PingMinInto(ctx, req.Prober, req.PCtx.Addrs, req.Target, cfg.Probes, s.Epoch, rtts, perrs)
	for i, err := range perrs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, rep, fmt.Errorf("core: ping %s→%s: %w", s.Landmarks[i].Name, req.Target, err)
		}
		rtts[i] = math.NaN()
		failures = append(failures, ProbeFailure{Landmark: s.Landmarks[i].Name, Reason: err.Error()})
	}
	if timing {
		rep.MeasureMs = float64(time.Since(mt0)) / float64(time.Millisecond)
	}
	req.RTTs = rtts

	if len(failures) > 0 {
		quorum := req.Opts.MinLandmarks
		if quorum <= 0 {
			quorum = DefaultMinLandmarks
		}
		rep.Failures = failures
		req.Failures = failures
		if answered := n - len(failures); answered < quorum {
			return nil, rep, fmt.Errorf(
				"core: only %d/%d landmarks answered for %s (quorum %d); first failure: %s: %s",
				answered, n, req.Target, quorum, failures[0].Landmark, failures[0].Reason)
		}
	}

	// 2. Target height (§2.2): solve the coarse position, then estimate
	// the target's inelastic component from the excess-latency
	// distribution. Two estimates with different conservatism: positive
	// constraints deflate by a LOW height estimate (keeping R(d) safely
	// large), negative constraints by a HIGH one (keeping r(d) safely
	// small). An erroneous deflation then loosens, never breaks, the
	// constraint.
	// A partial RTT vector skips the height solve cleanly: NaN entries
	// would poison the least-squares system, and a height estimated from
	// a biased subset of landmarks is worse than no deflation — the
	// undeflated constraints are merely looser, never wrong.
	copy(adjPos, rtts)
	copy(adjNeg, rtts)
	if !cfg.DisableHeights && len(failures) == 0 {
		locs := make([]geo.Point, n)
		for i, lm := range s.Landmarks {
			locs[i] = lm.Loc
		}
		hres, err := height.SolveTargetK(locs, s.Heights, rtts, s.Kappa)
		if err == nil {
			excess := make([]float64, n)
			for i, lm := range s.Landmarks {
				excess[i] = rtts[i] - s.Heights[i] -
					s.Kappa*geo.DistanceToMinLatencyMs(lm.Loc.DistanceKm(hres.Coarse))
			}
			req.TargetHeightMs = hres.HeightMs
			pct := negHeightPercentile
			if req.Opts.NegHeightPercentile > 0 {
				pct = req.Opts.NegHeightPercentile
			}
			tNeg := math.Max(req.TargetHeightMs, stats.Percentile(excess, pct))
			for i := range rtts {
				adjPos[i] = height.AdjustRTT(rtts[i], s.Heights[i], req.TargetHeightMs)
				adjNeg[i] = height.AdjustRTT(rtts[i], s.Heights[i], tNeg)
			}
		}
	}
	req.AdjPos, req.AdjNeg = adjPos, adjNeg

	if req.Opts.sourceOff(SourceLatency) {
		rep.Skipped = "disabled by request (measurements retained)"
		return nil, rep, nil
	}

	// 3. Latency constraints from every landmark (§2.1): the radii first, so
	// that every disk — ring, ring header, region — is carved from three
	// blocks of exactly their total size, pinning nothing the Result does
	// not retain.
	var rbuf [128]float64
	radii := rbuf[:0] // maxKm, minKm per landmark; 0 where there is no such disk
	verts, disks := 0, 0
	for i := range s.Landmarks {
		var maxKm, minKm float64
		if !math.IsNaN(rtts[i]) { // NaN: failed landmark (degraded mode); in rep.Failures
			maxKm = max(s.Calibs[i].MaxDistanceKm(adjPos[i])*(1+padFrac)+padKm, 0)
			minKm = s.Calibs[i].MinDistanceKm(adjNeg[i])*negativeShrink*(1-padFrac) - padKm
		}
		if maxKm == 0 || cfg.DisableNegative || !(minKm > 0 && minKm < maxKm) {
			minKm = 0
		}
		for _, r := range [2]float64{maxKm, minKm} {
			if r != 0 {
				verts, disks = verts+geo.CircleSegments(r, circleChordTolKm), disks+1
			}
		}
		radii = append(radii, maxKm, minKm)
	}
	arena := &constraintArena{vecs: make([]geo.Vec2, 0, verts), rings: make([]geo.Ring, 0, disks), regions: make([]geo.Region, 0, disks)}
	// Sized for the worst case (positive + negative per landmark), with
	// headroom the later pipeline stages' appends reuse through
	// appendConstraints' ownership transfer.
	out := make([]Constraint, 0, 2*n)
	cf := &req.PCtx.Center
	for i, lm := range s.Landmarks {
		maxKm, minKm := radii[2*i], radii[2*i+1]
		if maxKm == 0 {
			continue
		}
		w := LatencyWeight(rtts[i], weightHalfLifeMs)
		lf := &req.PCtx.LandmarkFrames[i]
		out = append(out, arena.disk(Positive, cf, lf, maxKm, w, lm.Name))
		if minKm != 0 {
			out = append(out, arena.disk(Negative, cf, lf, minKm, w*negativeWeightFactor, req.PCtx.NegSources[i]))
		}
	}
	return out, rep, nil
}

// RouterSource issues traceroutes from the lowest-latency landmarks and
// converts the routers whose names resolve to a city (req.Hints) into
// extra positive constraints (§2.3). It requires the LatencySource's RTT
// vector for landmark ranking and height deflation. The residual latency
// from a router at hop k to the target is the end-to-end RTT minus the
// cumulative RTT at hop k — the piece of the path the landmark's
// measurements cannot see. The target's solved height is removed from the
// residual before the distance lookup: the last router before a campus is
// often one metro away, and without the height deflation its constraint
// would be hundreds of km too loose.
//
// The traceroutes fan out through the request's measurement scheduler —
// slot-indexed placement restores rank order before any hop is processed,
// so the per-city best-constraint map (and therefore the output) does not
// depend on completion order.
type RouterSource struct{}

// Name implements EvidenceSource.
func (RouterSource) Name() string { return SourceRouter }

// Constraints implements EvidenceSource.
func (RouterSource) Constraints(ctx context.Context, req *Request) ([]Constraint, SourceReport, error) {
	rep := SourceReport{Source: SourceRouter}
	if req.Hints == nil {
		rep.Skipped = "no hint engine"
		return nil, rep, nil
	}
	if len(req.RTTs) == 0 {
		rep.Skipped = "no latency measurements"
		return nil, rep, nil
	}
	s := req.Survey
	// Rank landmarks by latency to the target. NaN slots are landmarks
	// whose measurement failed (degraded mode): they cannot be ranked —
	// and must not be, since NaN comparisons would silently corrupt the
	// sort below.
	type lmDist struct {
		idx int
		rtt float64
	}
	order := make([]lmDist, 0, len(req.RTTs))
	for i, r := range req.RTTs {
		if math.IsNaN(r) {
			continue
		}
		order = append(order, lmDist{i, r})
	}
	for i := 1; i < len(order); i++ { // insertion sort: n ≤ ~50
		for j := i; j > 0 && order[j].rtt < order[j-1].rtt; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	type routerCons struct {
		loc   geo.Point
		maxKm float64
		resid float64
	}
	best := make(map[string]routerCons) // per city code, keep the tightest
	nTr := tracerouteLandmarks
	if nTr > len(order) {
		nTr = len(order)
	}
	// Measure first, process after: hop processing is pure computation
	// over per-slot hop lists, so rank order is restored before any hop is
	// read and completion order changes wall-clock only.
	srcs := make([]string, nTr)
	for k := 0; k < nTr; k++ {
		srcs[k] = s.Landmarks[order[k].idx].Addr
	}
	hopLists := make([][]probe.Hop, nTr)
	terrs := make([]error, nTr)
	var mt0 time.Time
	if req.Opts.Explain {
		mt0 = time.Now()
	}
	req.sched.TracerouteInto(ctx, req.Prober, srcs, req.Target, hopLists, terrs)
	if req.Opts.Explain {
		rep.MeasureMs = float64(time.Since(mt0)) / float64(time.Millisecond)
	}
	for k := 0; k < nTr; k++ {
		lm := s.Landmarks[order[k].idx]
		hops, err := hopLists[k], terrs[k]
		if err != nil {
			// A failed traceroute is a skip-with-reason, never a request
			// abort: router evidence is supplementary, and the remaining
			// landmarks' traces (plus the latency constraints) still
			// bound the target.
			rep.Failures = append(rep.Failures, ProbeFailure{Landmark: lm.Name, Reason: "traceroute: " + err.Error()})
			continue
		}
		if len(hops) == 0 {
			continue
		}
		total := hops[len(hops)-1].RTTMs
		deflate := math.Min(req.TargetHeightMs, maxRouterHeightDeflationMs)
		for _, h := range hops[:len(hops)-1] {
			city, ok := req.Hints.Resolve(h.Name)
			if !ok {
				continue
			}
			residual := total - h.RTTMs - deflate - 0.3 // 0.3ms: downstream queuing allowance
			if residual < 0.2 {
				residual = 0.2
			}
			maxKm := s.Global.MaxDistanceKm(residual) + routerCityRadiusKm
			if prev, ok := best[city.Code]; !ok || maxKm < prev.maxKm {
				best[city.Code] = routerCons{loc: city.Loc, maxKm: maxKm, resid: residual}
			}
		}
	}
	codes := make([]string, 0, len(best))
	for code := range best {
		codes = append(codes, code)
	}
	sort.Strings(codes) // deterministic constraint order
	var cons []Constraint
	for _, code := range codes {
		rc := best[code]
		w := LatencyWeight(rc.resid, weightHalfLifeMs) * routerWeightFactor
		cons = append(cons, req.priorDisk(rc.loc, rc.maxKm, w, "router:"+code))
	}
	if len(cons) == 0 && len(rep.Failures) > 0 {
		rep.Skipped = "all traceroutes failed"
	}
	return cons, rep, nil
}

// HintSource contributes exogenous positive priors: the §2.5 WHOIS
// registration record and any caller-supplied Hints (registry-style
// regions from HLOC-like pipelines).
type HintSource struct{}

// Name implements EvidenceSource.
func (HintSource) Name() string { return SourceHint }

// Constraints implements EvidenceSource.
func (HintSource) Constraints(ctx context.Context, req *Request) ([]Constraint, SourceReport, error) {
	rep := SourceReport{Source: SourceHint}
	cfg := &req.Cfg
	var out []Constraint
	if !cfg.DisableWhois {
		if loc, _, ok := req.Prober.Whois(req.Target); ok && loc.Valid() {
			out = append(out, req.priorDisk(loc, whoisRadiusKm, whoisWeight, "whois"))
		}
	}
	for _, h := range req.Opts.Hints {
		radius, weight, label := h.RadiusKm, h.Weight, h.Label
		if radius <= 0 {
			radius = whoisRadiusKm
		}
		if weight <= 0 {
			weight = whoisWeight
		}
		if label == "" {
			label = "hint"
		}
		out = append(out, req.priorDisk(h.Loc, radius, weight, label))
	}
	if len(out) == 0 && rep.Skipped == "" {
		if cfg.DisableWhois {
			rep.Skipped = "whois disabled by config, no hints supplied"
		} else {
			rep.Skipped = "no whois record, no hints supplied"
		}
	}
	return out, rep, nil
}

// GeographySource applies the §2.5 geographic negative information: it
// restricts solutions to the survey's projected landmass outlines by
// setting the solver's hard mask. It contributes no weighted
// constraints of its own.
type GeographySource struct{}

// Name implements EvidenceSource.
func (GeographySource) Name() string { return SourceGeography }

// Constraints implements EvidenceSource.
func (GeographySource) Constraints(ctx context.Context, req *Request) ([]Constraint, SourceReport, error) {
	rep := SourceReport{Source: SourceGeography}
	req.Land = req.PCtx.Land
	return nil, rep, nil
}
