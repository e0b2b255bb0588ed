// Package octant is a from-scratch Go implementation of Octant, the
// constraint-based framework for geolocalizing Internet hosts from network
// measurements (Wong, Stoyanov, Sirer — NSDI).
//
// Octant poses geolocalization as error-minimizing constraint satisfaction:
// landmarks with (at least partially) known positions convert latency
// measurements into weighted positive constraints ("the target is within R
// km of me") and negative constraints ("the target is farther than r km"),
// plus constraints from router localization, WHOIS records, and geography.
// The solver combines them geometrically and returns both a location region
// — possibly non-convex and disconnected, bounded by Bezier curves — and a
// point estimate.
//
// # Quick start
//
//	ctx := context.Background()                             // bounds every measurement
//	world := octant.NewWorld(octant.WorldConfig{Seed: 1})  // simulated Internet
//	prober := octant.NewSimProber(world)
//	hosts := world.HostNodes()
//
//	var landmarks []octant.Landmark
//	for _, h := range hosts[1:] {
//		landmarks = append(landmarks, octant.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
//	}
//	survey, _ := octant.NewSurvey(prober, landmarks, octant.SurveyOpts{UseHeights: true})
//	loc := octant.NewLocalizer(prober, survey, octant.Config{})
//	res, _ := loc.LocalizeContext(ctx, hosts[0].Name)
//	fmt.Println(res.Point, res.AreaKm2)
//
// The same Localizer runs over any measurement source implementing Prober —
// the bundled simulator, the TCP-handshake prober, or your own.
//
// # Request-scoped options
//
// LocalizeContext accepts per-request options that tune one localization
// without touching the shared Localizer. Evidence enters through an
// ordered pipeline of EvidenceSource stages (latency, router, hint,
// geography — §2 of the paper treats them all as weighted constraints in
// one system), and every stage is addressable per request:
//
//	res, _ := loc.LocalizeContext(ctx, target,
//	    octant.WithoutSource(octant.SourceRouter),      // drop §2.3 evidence
//	    octant.WithSourceWeight(octant.SourceHint, 0.5), // distrust WHOIS 2×
//	    octant.WithHint(octant.Pt(40.7, -74.0), 100, 0.8, "registry"),
//	    octant.WithMinAreaKm2(5000),                     // tighter region
//	    octant.WithExplain(),                            // fill res.Provenance
//	)
//
// Router names on traceroute paths (§2.3) and the target's own reverse
// name are read by one name→city engine, HintEngine.
//
// # Serving
//
// For batch and serving workloads, wrap a Localizer in a BatchEngine: one
// request path for one target or many, measuring up to Workers targets
// at once against one immutable Survey, with per-target
// timeout/cancellation, streamed results, an LRU cache of recent
// localizations, and coalescing of concurrent duplicate requests.
//
//	engine := octant.NewBatchEngine(loc, octant.BatchOptions{Workers: 8})
//	for item := range engine.Run(ctx, targets) {
//		fmt.Println(item.Target, item.Result.Point)
//	}
//
// cmd/octant-serve exposes the same engine over HTTP (POST /v2/localize,
// POST /v2/localize/batch streaming NDJSON, GET /v1/healthz, GET
// /v1/stats), and the octant CLI's -parallel flag uses it for multi-target
// runs.
//
// # Survey lifecycle
//
// Long-running deployments should not pin the survey they booted with:
// the paper recomputes calibrations as network conditions change. Wrap
// the survey in a SurveyManager and hand the manager to the engine — it
// reprobes the landmark mesh periodically or on demand, refits the
// survey when its measurements drifted, and hot-swaps each new epoch
// atomically under live traffic:
//
//	manager := octant.NewSurveyManager(prober, survey, octant.Config{},
//		octant.SurveyManagerOptions{Interval: 15 * time.Minute})
//	engine := octant.NewBatchEngineWithProvider(manager, octant.BatchOptions{Workers: 8})
//	go manager.Run(ctx)
//
// Epoch snapshots serialize to disk (Survey.SaveSnapshotFile,
// LoadSurveySnapshot) so a restarted daemon starts warm without
// reprobing.
package octant

import (
	"context"

	"octant/internal/baselines"
	"octant/internal/batch"
	"octant/internal/calib"
	"octant/internal/core"
	"octant/internal/eval"
	"octant/internal/geo"
	"octant/internal/geodb"
	"octant/internal/hints"
	"octant/internal/lifecycle"
	"octant/internal/netsim"
	"octant/internal/probe"
)

// Geometry substrate.
type (
	// Point is a geographic position in degrees.
	Point = geo.Point
	// Vec2 is a point in a localization's projection plane (km).
	Vec2 = geo.Vec2
	// Region is an area bounded by one or more rings; possibly
	// non-convex and disconnected.
	Region = geo.Region
	// Ring is one closed boundary loop.
	Ring = geo.Ring
	// Projection maps geographic points to the plane and back.
	Projection = geo.Projection
	// BezierPath is a chain of cubic Bezier segments bounding a ring.
	BezierPath = geo.BezierPath
	// CubicBezier is a single cubic Bezier segment.
	CubicBezier = geo.CubicBezier
	// BoolOpts configures region boolean operations.
	BoolOpts = geo.BoolOpts
)

// Framework types.
type (
	// Landmark is a node with known position that issues measurements.
	Landmark = core.Landmark
	// Survey is the calibrated inter-landmark measurement state.
	Survey = core.Survey
	// SurveyOpts configures survey construction.
	SurveyOpts = core.SurveyOpts
	// Config selects and tunes the Octant mechanisms.
	Config = core.Config
	// Localizer runs localizations.
	Localizer = core.Localizer
	// Result is a localization outcome.
	Result = core.Result
	// Constraint is one weighted positive or negative region statement.
	Constraint = core.Constraint
	// Calibration is a landmark's latency→distance model.
	Calibration = calib.Calibration
)

// Request-scoped localization API (v2). A request is
// Localizer.LocalizeContext(ctx, target, opts...): the context bounds
// every measurement and the options tune this one request — evidence
// sources on/off and re-weighted, solver overrides, exogenous hints,
// extra constraints, custom sources, and provenance — without touching
// the shared Localizer.
type (
	// LocalizeOption tunes one localization request.
	LocalizeOption = core.LocalizeOption
	// LocalizeOptions is the resolved form of a request's options.
	LocalizeOptions = core.LocalizeOptions
	// EvidenceSource is one stage of the localization pipeline.
	EvidenceSource = core.EvidenceSource
	// EvidenceRequest is the per-request state evidence sources consume.
	// Its Prober is not bound to the request: a custom source that probes
	// directly binds the ctx it is handed (ProberWithContext(ctx,
	// req.Prober)).
	EvidenceRequest = core.Request
	// SourceReport is one source's provenance entry.
	SourceReport = core.SourceReport
	// ProbeFailure names a landmark whose measurement failed and why
	// (SourceReport.Failures, Provenance.Failures).
	ProbeFailure = core.ProbeFailure
	// Provenance explains how a localization was assembled
	// (Result.Provenance, filled by WithExplain).
	Provenance = core.Provenance
	// LocationHint is an exogenous positive prior for the hint source.
	LocationHint = core.Hint
	// SecondaryLandmark is a §2 secondary landmark (region + RTT).
	SecondaryLandmark = core.Secondary
	// LatencySource is the built-in §2.1–2.2 landmark RTT evidence.
	LatencySource = core.LatencySource
	// RouterSource is the built-in §2.3 router evidence.
	RouterSource = core.RouterSource
	// HintSource is the built-in §2.5 WHOIS/hint evidence.
	HintSource = core.HintSource
	// RDNSSource is the built-in reverse-DNS hint evidence: city tokens
	// (IATA, CLLI, spelled-out names) mined from the target's reverse
	// name, each cross-validated against the measured RTT bounds.
	RDNSSource = core.RDNSSource
	// GeoDBSource is the built-in passive geolocation-database evidence
	// (WithGeoDB / Config.GeoDB), cross-validated like RDNSSource.
	GeoDBSource = core.GeoDBSource
	// GeographySource is the built-in §2.5 ocean/land-mask evidence.
	GeographySource = core.GeographySource
	// DroppedHint records one exogenous prior the RTT cross-validation
	// rejected (Provenance.DroppedHints).
	DroppedHint = core.DroppedHint
	// Disagreement quantifies how far the hint, geo-DB, and latency
	// evidence point apart (Provenance.Disagreement).
	Disagreement = core.Disagreement
	// HintEngine maps DNS names to cities against an IATA/CLLI/city-name
	// gazetteer: Resolve places a router by its name (§2.3), Parse mines
	// an end host's reverse name for every hint it carries.
	HintEngine = hints.Engine
	// GazetteerHint is one parsed reverse-DNS location hint.
	GazetteerHint = hints.Hint
	// GeoDBProvider is a passive geolocation database the GeoDBSource
	// consults.
	GeoDBProvider = geodb.Provider
	// GeoDBRecord is one provider answer: position, confidence radius,
	// snapshot date, and source tag.
	GeoDBRecord = geodb.Record
	// GeoDBStatic is an in-memory file-backed provider.
	GeoDBStatic = geodb.Static
	// GeoDBComposite consults member providers in order with per-provider
	// trust weights and staleness decay.
	GeoDBComposite = geodb.Composite
	// GeoDBCompositeOpts tunes composite staleness decay.
	GeoDBCompositeOpts = geodb.CompositeOpts
	// GeoDBCached wraps a provider in an LRU lookup cache.
	//
	// Deprecated: pass the provider itself. Every provider here answers
	// from memory, and over a GeoDBComposite the cache keeps the first
	// decayed trust and inflated radius for good, freezing staleness
	// decay at the first lookup.
	GeoDBCached = geodb.Cached
)

// Built-in evidence source names for WithoutSource / WithSourceWeight.
const (
	SourceLatency   = core.SourceLatency
	SourceRouter    = core.SourceRouter
	SourceHint      = core.SourceHint
	SourceRDNS      = core.SourceRDNS
	SourceGeoDB     = core.SourceGeoDB
	SourceGeography = core.SourceGeography
)

// Survey lifecycle types.
type (
	// SurveyManager owns the survey as a versioned resource: epoch
	// snapshots, recalibration on drift, atomic hot-swap.
	SurveyManager = lifecycle.Manager
	// SurveyEpoch is one immutable survey generation plus its Localizer.
	SurveyEpoch = lifecycle.Epoch
	// SurveyManagerOptions tunes refresh cadence, drift tolerance, and
	// snapshot persistence.
	SurveyManagerOptions = lifecycle.Options
	// RefreshReport describes one recalibration round.
	RefreshReport = lifecycle.RefreshReport
	// SurveyStats is the lifecycle view served by GET /v1/survey.
	SurveyStats = lifecycle.Stats
)

// Measurement types.
type (
	// Prober is the measurement interface Octant consumes.
	Prober = probe.Prober
	// ContextProber is a Prober whose measurements natively observe a
	// context (see ProberWithContext).
	ContextProber = probe.ContextProber
	// SimProber probes the simulated Internet.
	SimProber = probe.SimProber
	// TCPProber measures real RTTs via TCP handshakes.
	TCPProber = probe.TCPProber
	// Hop is a traceroute step.
	Hop = probe.Hop
	// World is the simulated Internet.
	World = netsim.World
	// WorldConfig configures the simulated Internet.
	WorldConfig = netsim.Config
	// SiteSpec describes one simulated host site.
	SiteSpec = netsim.SiteSpec
	// UndnsResolver maps router DNS names to locations; it is the
	// HintEngine under its §2.3 name.
	//
	// Deprecated: use HintEngine, the same type.
	UndnsResolver = hints.Engine
)

// Batch and serving types.
type (
	// BatchEngine runs many localizations concurrently over one Survey,
	// with caching, coalescing, and per-target cancellation.
	BatchEngine = batch.Engine
	// BatchOptions configures a BatchEngine.
	BatchOptions = batch.Options
	// BatchItem is one streamed batch outcome.
	BatchItem = batch.Item
	// BatchStats is a snapshot of engine counters and latency quantiles.
	BatchStats = batch.Stats
)

// Baseline and evaluation types.
type (
	// GeoLim is the constraint-based geolocation baseline (CBG).
	GeoLim = baselines.GeoLim
	// GeoPing is the latency-signature baseline (IP2Geo).
	GeoPing = baselines.GeoPing
	// GeoTrack is the traceroute/DNS baseline (IP2Geo).
	GeoTrack = baselines.GeoTrack
	// Deployment is the paper's 51-node evaluation testbed.
	Deployment = eval.Deployment
)

// Pt builds a Point from latitude and longitude in degrees.
func Pt(lat, lon float64) Point { return geo.Pt(lat, lon) }

// NewProjection returns an azimuthal equidistant projection centred at c.
func NewProjection(c Point) *Projection { return geo.NewProjection(c) }

// NewWorld builds a deterministic simulated Internet.
func NewWorld(cfg WorldConfig) *World { return netsim.NewWorld(cfg) }

// NewSimProber adapts a simulated world to the Prober interface.
func NewSimProber(w *World) *SimProber { return probe.NewSimProber(w) }

// NewTCPProber returns a prober measuring real RTTs via TCP handshakes.
func NewTCPProber() *TCPProber { return probe.NewTCPProber() }

// NewSurvey measures all landmark pairs and fits heights and calibrations.
func NewSurvey(p Prober, landmarks []Landmark, opts SurveyOpts) (*Survey, error) {
	return core.NewSurvey(p, landmarks, opts)
}

// NewLocalizer builds an Octant localizer over a calibrated survey.
func NewLocalizer(p Prober, s *Survey, cfg Config) *Localizer {
	return core.NewLocalizer(p, s, cfg)
}

// Request-scoped localization options (v2), re-exported from core.

// NewLocalizeOptions resolves functional options into a LocalizeOptions.
func NewLocalizeOptions(opts ...LocalizeOption) LocalizeOptions {
	return core.NewLocalizeOptions(opts...)
}

// DefaultEvidenceSources returns the built-in evidence pipeline in
// execution order: latency, router, hint, rdns, geodb, geography.
func DefaultEvidenceSources() []EvidenceSource { return core.DefaultSources() }

// WithoutSource disables the named evidence source for one request.
func WithoutSource(name string) LocalizeOption { return core.WithoutSource(name) }

// WithSourceWeight scales the named source's constraint weights (> 0).
func WithSourceWeight(name string, scale float64) LocalizeOption {
	return core.WithSourceWeight(name, scale)
}

// WithMinAreaKm2 overrides the §2.4 region size threshold per request.
func WithMinAreaKm2(km2 float64) LocalizeOption { return core.WithMinAreaKm2(km2) }

// WithFineCellKm overrides the solver's fine-pass resolution per request.
func WithFineCellKm(km float64) LocalizeOption { return core.WithFineCellKm(km) }

// WithNegHeightPercentile overrides the negative-constraint height
// percentile per request.
func WithNegHeightPercentile(p float64) LocalizeOption { return core.WithNegHeightPercentile(p) }

// WithExplain fills Result.Provenance with per-source evidence detail.
func WithExplain() LocalizeOption { return core.WithExplain() }

// WithMinLandmarks sets the request's landmark quorum: when some
// landmarks fail to answer but at least n do, the localization proceeds
// on partial evidence and the Result is marked Degraded, with the
// failed landmarks named in its Provenance; below n the request errors
// (0 = the default quorum of 3).
func WithMinLandmarks(n int) LocalizeOption { return core.WithMinLandmarks(n) }

// WithHint adds an exogenous positive prior for the hint source.
func WithHint(loc Point, radiusKm, weight float64, label string) LocalizeOption {
	return core.WithHint(loc, radiusKm, weight, label)
}

// WithConstraints appends caller-supplied constraints to the request.
func WithConstraints(cs ...Constraint) LocalizeOption { return core.WithConstraints(cs...) }

// WithEvidenceSource appends a custom evidence source to the request's
// pipeline, after the built-ins.
func WithEvidenceSource(s EvidenceSource) LocalizeOption { return core.WithEvidenceSource(s) }

// WithSecondary folds a §2 secondary landmark (region beta + RTT) into
// the request.
func WithSecondary(beta *Region, rttMs float64) LocalizeOption {
	return core.WithSecondary(beta, rttMs)
}

// WithGeoDB consults the given passive geolocation provider for this one
// request (overriding Config.GeoDB). Such requests are never cached or
// coalesced — the provider's answers may change between calls.
func WithGeoDB(p GeoDBProvider) LocalizeOption { return core.WithGeoDB(p) }

// NewHintEngine builds the reverse-DNS gazetteer over the simulator's
// POP city table (IATA codes, CLLI codes, spelled-out names).
func NewHintEngine() *HintEngine { return hints.NewEngine() }

// NewGeoDBStatic builds an empty in-memory geolocation provider.
func NewGeoDBStatic(name string) *GeoDBStatic { return geodb.NewStatic(name) }

// LoadGeoDB reads a static geolocation database from a JSON file (the
// octant-serve -geodb format).
func LoadGeoDB(path string) (*GeoDBStatic, error) { return geodb.LoadFile(path) }

// NewGeoDBComposite layers providers with per-provider trust weights and
// staleness decay; lookups take the first member that answers.
func NewGeoDBComposite(opts GeoDBCompositeOpts) *GeoDBComposite { return geodb.NewComposite(opts) }

// NewGeoDBCached wraps a provider in an LRU lookup cache (capacity ≤ 0
// means the 1024-entry default).
//
// Deprecated: pass the provider itself; see GeoDBCached.
func NewGeoDBCached(inner GeoDBProvider, capacity int) *GeoDBCached {
	return geodb.NewCached(inner, capacity)
}

// NewBatchEngine wraps a fixed Localizer in a concurrent batch engine.
func NewBatchEngine(l *Localizer, opts BatchOptions) *BatchEngine {
	return batch.New(l, opts)
}

// NewBatchEngineWithProvider builds an engine that borrows the current
// survey epoch's Localizer from p once per request — pass a
// *SurveyManager to serve hot-swapped recalibrations with zero dropped
// requests.
func NewBatchEngineWithProvider(p batch.Provider, opts BatchOptions) *BatchEngine {
	return batch.NewWithProvider(p, opts)
}

// NewSurveyManager starts a survey lifecycle around an existing survey
// (freshly probed, or warm from LoadSurveySnapshot).
func NewSurveyManager(p Prober, s *Survey, cfg Config, opts SurveyManagerOptions) *SurveyManager {
	return lifecycle.New(p, s, cfg, opts)
}

// NewSurveyManagerProbed probes the full landmark mesh and starts a
// survey lifecycle around the result.
func NewSurveyManagerProbed(p Prober, landmarks []Landmark, sopts SurveyOpts, cfg Config, opts SurveyManagerOptions) (*SurveyManager, error) {
	return lifecycle.NewProbed(p, landmarks, sopts, cfg, opts)
}

// LoadSurveySnapshot reads a survey snapshot written by
// Survey.SaveSnapshotFile (or the octant-serve -survey-snapshot flag),
// ready to serve without reprobing.
func LoadSurveySnapshot(path string) (*Survey, error) {
	return core.LoadSnapshotFile(path)
}

// ProberWithContext binds ctx to a Prober so its measurement calls fail
// once the context is done, using p's native ContextProber support when
// available.
func ProberWithContext(ctx context.Context, p Prober) Prober {
	return probe.WithContext(ctx, p)
}

// LocalizeAll is the one-call batch convenience: localize every target
// with the given parallelism and return results in submission order
// (errs[i] is non-nil exactly where results[i] is nil).
//
// Deprecated: use NewBatchEngine(l, BatchOptions{Workers: workers}).Collect(ctx, targets),
// which is what it runs.
func LocalizeAll(ctx context.Context, l *Localizer, targets []string, workers int) ([]*Result, []error) {
	return NewBatchEngine(l, BatchOptions{Workers: workers}).Collect(ctx, targets)
}

// NewGeoLim builds the CBG baseline over a survey.
func NewGeoLim(s *Survey) *GeoLim { return baselines.NewGeoLim(s) }

// NewGeoPing builds the latency-signature baseline over a survey.
func NewGeoPing(s *Survey) *GeoPing { return baselines.NewGeoPing(s) }

// NewGeoTrack builds the traceroute/DNS baseline over a survey.
func NewGeoTrack(s *Survey) *GeoTrack { return baselines.NewGeoTrack(s) }

// NewDeployment builds the 51-node evaluation testbed from the paper's §3.
func NewDeployment(seed uint64) (*Deployment, error) { return eval.NewDeployment(seed) }

// NewUndnsResolver returns the router-DNS-name → city resolver.
//
// Deprecated: use NewHintEngine, which builds the same engine.
func NewUndnsResolver() *UndnsResolver { return hints.NewEngine() }

// DefaultSites is the 51-site deployment used throughout the evaluation.
var DefaultSites = netsim.DefaultSites

// Region constructors and boolean operations, re-exported for building
// custom constraints (Figure 1-style compositions).

// Disk returns a circular region in the projection plane.
func Disk(center Vec2, radiusKm float64, segments int) *Region {
	return geo.Disk(center, radiusKm, segments)
}

// Annulus returns the region between two radii.
func Annulus(center Vec2, rInner, rOuter float64, segments int) *Region {
	return geo.Annulus(center, rInner, rOuter, segments)
}

// Intersect returns a ∩ b.
func Intersect(a, b *Region, opts *BoolOpts) *Region { return geo.Intersect(a, b, opts) }

// Union returns a ∪ b.
func Union(a, b *Region, opts *BoolOpts) *Region { return geo.Union(a, b, opts) }

// Subtract returns a \ b.
func Subtract(a, b *Region, opts *BoolOpts) *Region { return geo.Subtract(a, b, opts) }

// Buffer grows (d>0) or shrinks (d<0) a region by |d| km.
func Buffer(r *Region, d, cellKm float64) *Region { return geo.Buffer(r, d, cellKm) }

// LatencyToMaxDistanceKm converts a round-trip time to the maximal
// geographic distance assuming propagation at 2/3 the speed of light
// (§2.1's conservative bound).
func LatencyToMaxDistanceKm(rttMs float64) float64 { return geo.LatencyToMaxDistanceKm(rttMs) }

// DistanceToMinLatencyMs is the inverse of LatencyToMaxDistanceKm.
func DistanceToMinLatencyMs(distKm float64) float64 { return geo.DistanceToMinLatencyMs(distKm) }

// Constraint builders (§2 of the paper).

// PositiveDisk asserts the target is within radiusKm of a known point.
func PositiveDisk(pr *Projection, center Point, radiusKm, weight float64, source string) Constraint {
	return core.PositiveDisk(pr, center, radiusKm, weight, source)
}

// NegativeDisk asserts the target is farther than radiusKm from a point.
func NegativeDisk(pr *Projection, center Point, radiusKm, weight float64, source string) Constraint {
	return core.NegativeDisk(pr, center, radiusKm, weight, source)
}

// PositiveFromRegion dilates a secondary landmark's region by radiusKm.
func PositiveFromRegion(beta *Region, radiusKm, weight float64, source string) Constraint {
	return core.PositiveFromRegion(beta, radiusKm, weight, source)
}

// NegativeFromRegion intersects radiusKm-disks over a secondary landmark's
// region.
func NegativeFromRegion(beta *Region, radiusKm, weight float64, source string) Constraint {
	return core.NegativeFromRegion(beta, radiusKm, weight, source)
}

// Solve runs the weighted constraint solver directly (most callers use
// Localizer instead).
func Solve(constraints []Constraint, opts SolverOpts) (*Solution, error) {
	return core.Solve(constraints, opts)
}

// SolverOpts configures a direct Solve call.
type SolverOpts = core.SolverOpts

// Solution is the outcome of a direct Solve call.
type Solution = core.Solution
