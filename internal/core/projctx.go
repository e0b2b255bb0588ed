package core

import "octant/internal/geo"

// ProjectionContext is the projection-dependent state that is fixed for a
// Survey: the centroid projection and its tangent frame, each landmark's
// precomputed frame and projected position, and the §2.5 land outlines
// projected into the survey's plane. None of it can change while the
// (immutable) Survey is in use, so it is built once, not per request.
//
// A context is immutable after NewProjectionContext and safe to share: the
// Localizer caches one, and the batch engine's workers all read it through
// the one Localizer they share, exactly like the LandMaskCache.
type ProjectionContext struct {
	// Proj is the shared azimuthal equidistant projection centred at the
	// survey centroid. Results of every localization against the survey
	// reference this one projection.
	Proj *geo.Projection
	// Center is Proj's tangent frame, the constraint-construction fast
	// path's projection target.
	Center geo.Frame
	// LandmarkFrames[i] is the precomputed tangent frame of landmark i —
	// the per-disk frame build cost paid once per survey instead of twice
	// per landmark per target. A landmark's projected position, when
	// needed, is Center.ForwardVec(LandmarkFrames[i].U).
	LandmarkFrames []geo.Frame
	// Land holds the §2.5 landmass outlines projected into Proj's plane,
	// built once and passed to every solve as SolverOpts.LandRegions.
	Land []*geo.Region
	// Addrs[i] is landmark i's probing address — the measurement
	// scheduler's fan-out source list, materialized once per survey so
	// the per-request path never rebuilds it.
	Addrs []string
	// NegSources[i] is the Source of landmark i's negative latency
	// constraint, "<name>/neg", spelled once per survey, not per target.
	NegSources []string

	survey *Survey // identity guard for the Localizer's cache
}

// NewProjectionContext builds the shared projection state for s.
func NewProjectionContext(s *Survey) *ProjectionContext {
	pr := geo.NewProjection(s.Centroid())
	cf := pr.Frame()
	ctx := &ProjectionContext{
		Proj:           pr,
		Center:         cf,
		LandmarkFrames: make([]geo.Frame, s.N()),
		Land:           LandRegions(pr),
		Addrs:          make([]string, s.N()),
		NegSources:     make([]string, s.N()),
		survey:         s,
	}
	for i, lm := range s.Landmarks {
		ctx.LandmarkFrames[i] = geo.NewFrame(lm.Loc)
		ctx.Addrs[i] = lm.Addr
		ctx.NegSources[i] = lm.Name + "/neg"
	}
	return ctx
}

// projContext returns the Localizer's cached context, rebuilding it only if
// the Localizer was constructed without NewLocalizer or its Survey was
// swapped afterwards.
func (l *Localizer) projContext() *ProjectionContext {
	if l.pctx != nil && l.pctx.survey == l.Survey {
		return l.pctx
	}
	return NewProjectionContext(l.Survey)
}
