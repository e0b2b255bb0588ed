package core

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"octant/internal/geo"
	"octant/internal/geodb"
)

// LocalizeOption is a per-request tuning knob for the v2 localization
// entry point, Localizer.LocalizeContext. Options never mutate the
// Localizer — each request resolves its own LocalizeOptions, so two
// concurrent requests with different options are fully independent.
type LocalizeOption func(*LocalizeOptions)

// Hint is an exogenous positive prior for the HintSource: "registry-style
// information places the target near Loc". Zero RadiusKm and Weight fall
// back to the WHOIS constraint's own (60 km, 0.8), the calibrated
// confidence for city-level registration data.
type Hint struct {
	Loc      geo.Point
	RadiusKm float64
	Weight   float64
	// Label is the constraint's Source tag (default "hint").
	Label string
}

// Secondary describes a §2 secondary landmark for a request: a node whose
// own position is only known as the estimated region Beta (e.g. a
// previously localized router) plus its measured RTT to the target.
type Secondary struct {
	Beta  *geo.Region
	RTTMs float64
}

// LocalizeOptions is the resolved form of a request's options. The zero
// value means "exactly the Localizer's configured behaviour" — the v1
// request path. Fields are exported so serving front ends can map wire
// formats onto them 1:1; most callers use the With* functional options
// instead.
type LocalizeOptions struct {
	// Disabled turns off evidence sources by name (SourceLatency,
	// SourceRouter, SourceHint, SourceGeography, or a custom source's
	// name). Disabling SourceLatency suppresses its constraints but not
	// its measurements: downstream sources (router ranking, provenance)
	// still need the RTT vector.
	Disabled map[string]bool
	// WeightScale multiplies every constraint weight a source emits
	// (keyed by source name; 0 or absent means 1). Down-weighting
	// suspect traceroute evidence is WeightScale[SourceRouter] < 1.
	WeightScale map[string]float64
	// MinAreaKm2 overrides the §2.4 size threshold (25,000 km²) for
	// this request when > 0.
	MinAreaKm2 float64
	// FineCellKm overrides the solver's refinement resolution when > 0.
	FineCellKm float64
	// NegHeightPercentile overrides the excess-latency percentile (80)
	// that deflates negative constraints when > 0.
	NegHeightPercentile float64
	// MinLandmarks is the degraded-mode quorum: the minimum number of
	// landmarks that must answer for a localization to proceed when some
	// landmark measurements fail (0 = DefaultMinLandmarks). Failures at
	// or above the quorum degrade the result (Result.Degraded) instead
	// of aborting it; below the quorum the request errors.
	MinLandmarks int
	// Explain fills Result.Provenance with per-source constraint
	// counts, weights, area contributions, and timings.
	Explain bool
	// Hints are extra positive priors consumed by the HintSource.
	Hints []Hint
	// GeoDB overrides the Localizer's configured passive-geolocation
	// provider (Config.GeoDB) for this request. Requests carrying a
	// provider are never cached or coalesced by the batch engine: a
	// provider is arbitrary code whose contents cannot be fingerprinted
	// (only its name is encoded, for debugging).
	GeoDB geodb.Provider
	// Extra are caller-supplied constraints appended verbatim after
	// every source has contributed (they are never weight-scaled).
	Extra []Constraint
	// ExtraSources run after the built-in pipeline, in order. Requests
	// carrying extra sources are never cached or coalesced by the batch
	// engine (arbitrary code cannot be fingerprinted).
	ExtraSources []EvidenceSource
	// Secondary, when non-nil, appends the §2 secondary-landmark
	// constraints before the request's one solve.
	Secondary *Secondary
}

// NewLocalizeOptions resolves functional options into a LocalizeOptions.
func NewLocalizeOptions(opts ...LocalizeOption) LocalizeOptions {
	var o LocalizeOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithoutSource disables the named evidence source for this request.
func WithoutSource(name string) LocalizeOption {
	return func(o *LocalizeOptions) {
		if o.Disabled == nil {
			o.Disabled = make(map[string]bool, 2)
		}
		o.Disabled[name] = true
	}
}

// WithSourceWeight scales every constraint weight the named source emits
// by scale, which must be > 0 (non-positive scales are ignored, keeping
// the option's behaviour and its cache fingerprint in agreement — to
// remove a source's evidence entirely, use WithoutSource). Use it to
// down-weight evidence classes the caller trusts less without
// discarding them outright.
func WithSourceWeight(name string, scale float64) LocalizeOption {
	return func(o *LocalizeOptions) {
		if scale <= 0 {
			return
		}
		if o.WeightScale == nil {
			o.WeightScale = make(map[string]float64, 2)
		}
		o.WeightScale[name] = scale
	}
}

// WithMinAreaKm2 overrides the §2.4 region size threshold per request:
// smaller trades containment confidence for precision.
func WithMinAreaKm2(km2 float64) LocalizeOption {
	return func(o *LocalizeOptions) { o.MinAreaKm2 = km2 }
}

// WithFineCellKm overrides the solver's fine-pass raster resolution.
func WithFineCellKm(km float64) LocalizeOption {
	return func(o *LocalizeOptions) { o.FineCellKm = km }
}

// WithNegHeightPercentile overrides the excess-latency percentile used
// to deflate negative constraints (default 80).
func WithNegHeightPercentile(p float64) LocalizeOption {
	return func(o *LocalizeOptions) { o.NegHeightPercentile = p }
}

// DefaultMinLandmarks is the degraded-mode quorum when WithMinLandmarks
// is unset: a localization proceeds despite landmark failures while at
// least this many landmarks answered. Three is the floor below which
// the constraint system loses its geometry (the same minimum NewSurvey
// and the Localizer enforce for the survey itself).
const DefaultMinLandmarks = 3

// WithMinLandmarks sets the request's measurement quorum: while at
// least n landmarks answer, per-landmark measurement failures degrade
// the result (Result.Degraded, with reasons in Provenance.Failures)
// instead of failing the request; with fewer answers the request
// errors. n = 0 means DefaultMinLandmarks.
func WithMinLandmarks(n int) LocalizeOption {
	return func(o *LocalizeOptions) { o.MinLandmarks = n }
}

// WithExplain makes the request fill Result.Provenance.
func WithExplain() LocalizeOption {
	return func(o *LocalizeOptions) { o.Explain = true }
}

// WithHint adds an exogenous positive prior (WHOIS/registry-style) for
// the HintSource. Zero radiusKm/weight use the Config WHOIS defaults.
func WithHint(loc geo.Point, radiusKm, weight float64, label string) LocalizeOption {
	return func(o *LocalizeOptions) {
		o.Hints = append(o.Hints, Hint{Loc: loc, RadiusKm: radiusKm, Weight: weight, Label: label})
	}
}

// WithGeoDB supplies (or, over a Localizer already configured with one,
// replaces) the passive-geolocation provider the GeoDBSource consults
// for this request. Like WithEvidenceSource, it makes the request
// uncacheable in the batch engine.
func WithGeoDB(p geodb.Provider) LocalizeOption {
	return func(o *LocalizeOptions) { o.GeoDB = p }
}

// WithConstraints appends caller-supplied constraints to the system
// after every evidence source has run.
func WithConstraints(cs ...Constraint) LocalizeOption {
	return func(o *LocalizeOptions) { o.Extra = append(o.Extra, cs...) }
}

// WithEvidenceSource appends a custom evidence source to the pipeline,
// after the built-in sources. It observes the request's measurement
// state (RTTs, heights) like any built-in.
func WithEvidenceSource(s EvidenceSource) LocalizeOption {
	return func(o *LocalizeOptions) { o.ExtraSources = append(o.ExtraSources, s) }
}

// WithSecondary adds a §2 secondary landmark — a node known only as the
// region beta with measured RTT rttMs to the target.
func WithSecondary(beta *geo.Region, rttMs float64) LocalizeOption {
	return func(o *LocalizeOptions) { o.Secondary = &Secondary{Beta: beta, RTTMs: rttMs} }
}

// sourceOff reports whether the request disabled the named source.
func (o *LocalizeOptions) sourceOff(name string) bool {
	return o.Disabled != nil && o.Disabled[name]
}

// scaleFor returns the weight scale for a source (1 when unset).
func (o *LocalizeOptions) scaleFor(name string) float64 {
	if o.WeightScale == nil {
		return 1
	}
	if s := o.WeightScale[name]; s > 0 {
		return s
	}
	return 1
}

// isZero reports a fully default options value — the v1-equivalent fast
// path that must stay allocation-free and bit-identical to Localize.
func (o *LocalizeOptions) isZero() bool {
	return o == nil || (len(o.Disabled) == 0 && len(o.WeightScale) == 0 &&
		o.MinAreaKm2 == 0 && o.FineCellKm == 0 && o.NegHeightPercentile == 0 &&
		o.MinLandmarks == 0 && !o.Explain && len(o.Hints) == 0 && o.GeoDB == nil &&
		len(o.Extra) == 0 && len(o.ExtraSources) == 0 && o.Secondary == nil)
}

// Cacheable reports whether two requests resolving to the same
// Fingerprint are guaranteed to compute the same result, making the
// request safe to cache and coalesce. Requests carrying ExtraSources or
// a GeoDB provider are not: arbitrary source/provider code cannot be
// fingerprinted by content.
func (o *LocalizeOptions) Cacheable() bool {
	return o == nil || (len(o.ExtraSources) == 0 && o.GeoDB == nil)
}

// Fingerprint returns a canonical encoding of the options such that two
// requests with the same fingerprint (and target, and survey epoch)
// compute identical results. The default options fingerprint is "" —
// the hot path pays no formatting cost. The batch engine qualifies its
// LRU and singleflight keys with it so differently-tuned requests never
// collide, while identical tunings still coalesce.
//
// Every string is length-prefixed, so no source name or hint label can
// spell a separator and pass for another options set; everything the
// wire can express is encoded exactly. Caller-supplied constraints and
// secondary regions are reduced to a 64-bit hash.
func (o *LocalizeOptions) Fingerprint() string {
	if o.isZero() {
		return ""
	}
	var b strings.Builder
	if len(o.Disabled) > 0 {
		names := make([]string, 0, len(o.Disabled))
		for name, off := range o.Disabled {
			if off {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		b.WriteString("d=")
		for _, name := range names {
			fpString(&b, name)
		}
		b.WriteByte(';')
	}
	if len(o.WeightScale) > 0 {
		names := make([]string, 0, len(o.WeightScale))
		for name := range o.WeightScale {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("w=")
		for _, name := range names {
			fpString(&b, name)
			b.WriteString(fpFloat(o.WeightScale[name]) + ",")
		}
		b.WriteByte(';')
	}
	if o.MinAreaKm2 != 0 {
		b.WriteString("a=" + fpFloat(o.MinAreaKm2) + ";")
	}
	if o.FineCellKm != 0 {
		b.WriteString("f=" + fpFloat(o.FineCellKm) + ";")
	}
	if o.NegHeightPercentile != 0 {
		b.WriteString("p=" + fpFloat(o.NegHeightPercentile) + ";")
	}
	if o.MinLandmarks != 0 {
		b.WriteString("q=" + strconv.Itoa(o.MinLandmarks) + ";")
	}
	if o.Explain {
		b.WriteString("e;")
	}
	if len(o.Hints) > 0 {
		b.WriteString("h=")
		for _, h := range o.Hints {
			for _, f := range [...]float64{h.Loc.Lat, h.Loc.Lon, h.RadiusKm, h.Weight} {
				b.WriteString(fpFloat(f) + ",")
			}
			fpString(&b, h.Label)
		}
		b.WriteByte(';')
	}
	if len(o.Extra) > 0 {
		h := fnv.New64a()
		for _, c := range o.Extra {
			hashConstraint(h, &c)
		}
		b.WriteString("c=" + strconv.Itoa(len(o.Extra)) + ":" + strconv.FormatUint(h.Sum64(), 36) + ";")
	}
	if len(o.ExtraSources) > 0 {
		// Content is not fingerprintable; Cacheable() is false, so this
		// component only keeps the encoding lossless for debugging.
		b.WriteString("s=" + strconv.Itoa(len(o.ExtraSources)) + ";")
	}
	if o.GeoDB != nil {
		// Same caveat as ExtraSources: the provider's name keeps the
		// encoding lossless, but Cacheable() is false.
		b.WriteString("g=")
		fpString(&b, o.GeoDB.Name())
		b.WriteByte(';')
	}
	if o.Secondary != nil {
		h := fnv.New64a()
		hashRegion(h, o.Secondary.Beta)
		b.WriteString("2=" + fpFloat(o.Secondary.RTTMs) + ":" + strconv.FormatUint(h.Sum64(), 36) + ";")
	}
	return b.String()
}

// fpFloat renders a float64 exactly (hex form) for fingerprints.
func fpFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// fpString writes s as "len:s".
func fpString(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)) + ":" + s)
}

type hash64 interface {
	Write([]byte) (int, error)
	Sum64() uint64
}

func hashUint(h hash64, u uint64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(u >> (8 * i))
	}
	h.Write(buf[:])
}

func hashFloat(h hash64, f float64) { hashUint(h, math.Float64bits(f)) }

// hashRegion hashes the ring count, then each ring's vertex count and
// vertices; a nil region hashes as an empty one.
func hashRegion(h hash64, r *geo.Region) {
	var rings []geo.Ring
	if r != nil {
		rings = r.Rings
	}
	hashUint(h, uint64(len(rings)))
	for _, ring := range rings {
		hashUint(h, uint64(len(ring)))
		for _, v := range ring {
			hashFloat(h, v.X)
			hashFloat(h, v.Y)
		}
	}
}

func hashConstraint(h hash64, c *Constraint) {
	h.Write([]byte{byte(c.Kind)})
	hashFloat(h, c.Weight)
	hashUint(h, uint64(len(c.Source)))
	h.Write([]byte(c.Source))
	hashRegion(h, c.Region)
}
