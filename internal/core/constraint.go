// Package core implements the Octant framework itself — the paper's primary
// contribution. It turns network measurements into weighted positive and
// negative geographic constraints (§2), solves the constraint system with an
// error-minimizing weighted geometric solver (§2.4), refines estimates with
// queuing-delay heights (§2.2), piecewise router localization over indirect
// routes (§2.3), and geographic/demographic constraints (§2.5).
package core

import (
	"fmt"
	"math"

	"octant/internal/geo"
	"octant/internal/hull"
)

// Kind distinguishes positive from negative constraints.
type Kind int

// Constraint kinds.
const (
	// Positive constraints assert the target IS inside the region
	// ("within x miles of L").
	Positive Kind = iota
	// Negative constraints assert the target is NOT inside the region
	// ("further than y miles from L").
	Negative
)

func (k Kind) String() string {
	if k == Negative {
		return "negative"
	}
	return "positive"
}

// Constraint is a weighted region statement about the target's position.
// Regions live in the projection plane of the enclosing localization.
type Constraint struct {
	Kind   Kind
	Region *geo.Region
	Weight float64
	Source string // provenance, e.g. landmark name, "whois", "router:nyc"
}

// String summarizes the constraint.
func (c Constraint) String() string {
	return fmt.Sprintf("%s[%s w=%.3f area=%.0fkm²]", c.Kind, c.Source, c.Weight, c.Region.Area())
}

// circleSegments is the polygonalization cap for constraint disks; small
// disks use fewer vertices, chosen per radius by the chord-error bound
// below.
const circleSegments = 96

// circleChordTolKm is the chord-error (sagitta) budget that picks each
// disk's vertex count: max(0.25 km, FineCellKm/4) = 1 km for the 4 km
// fine pass Localize always solves at (SolverOpts.FineCellKm is not
// user-configurable through Config; a caller driving Solve directly at a
// custom resolution builds its own rings). A 60 km WHOIS/router disk
// polygonalized to this tolerance needs 24 vertices, not 96;
// continent-scale latency disks keep full density.
const circleChordTolKm = 1.0

// diskConstraint builds a disk constraint through the unit-vector fast
// path: the ring is generated directly at its adaptive size (no oversized
// scratch, no clone), comes back counter-clockwise, and is the region as it
// stands.
func diskConstraint(kind Kind, cf, lf *geo.Frame, radiusKm, weight float64, source string) Constraint {
	n := geo.CircleSegments(radiusKm, circleChordTolKm)
	ring := geo.Ring(cf.AppendGeoCircle(make([]geo.Vec2, 0, n), lf, radiusKm, n))
	return Constraint{
		Kind:   kind,
		Region: &geo.Region{Rings: []geo.Ring{ring}},
		Weight: weight,
		Source: source,
	}
}

// Arena chunk sizes: a typical localization builds ~100 disks of ≤ 96
// vertices, so one vertex chunk and one header chunk cover most targets.
const (
	arenaVecChunk    = 8192
	arenaRingChunk   = 128
	arenaRegionChunk = 128
)

// constraintArena bump-allocates the three fixed-shape pieces of a disk
// constraint — the vertex ring, its one-entry []Ring, and the Region
// header — out of large chunks instead of three heap objects per disk.
// The fused batch path gives each worker one arena for the lifetime of
// the batch: chunk memory is retained by the Results built from it (a
// Result keeps its constraint regions), so the arena never recycles, it
// only amortizes the allocation *count* across disks and targets.
//
// An arena is single-goroutine state; the zero value is ready to use.
type constraintArena struct {
	vecs    []geo.Vec2
	rings   []geo.Ring
	regions []geo.Region
}

// disk is diskConstraint with every piece carved from the arena. The ring
// contents, orientation, and the resulting Constraint value are
// bit-identical to diskConstraint's; only the backing allocations differ.
func (a *constraintArena) disk(kind Kind, cf, lf *geo.Frame, radiusKm, weight float64, source string) Constraint {
	n := geo.CircleSegments(radiusKm, circleChordTolKm)
	if len(a.vecs)+n > cap(a.vecs) {
		c := arenaVecChunk
		if n > c {
			c = n
		}
		a.vecs = make([]geo.Vec2, 0, c)
	}
	base := len(a.vecs)
	ring := geo.Ring(cf.AppendGeoCircle(a.vecs[base:base:base+n], lf, radiusKm, n))
	if len(ring) <= n {
		a.vecs = a.vecs[:base+len(ring)]
	}
	if len(a.rings) == cap(a.rings) {
		a.rings = make([]geo.Ring, 0, arenaRingChunk)
	}
	a.rings = append(a.rings, ring)
	rs := a.rings[len(a.rings)-1 : len(a.rings) : len(a.rings)]
	if len(a.regions) == cap(a.regions) {
		a.regions = make([]geo.Region, 0, arenaRegionChunk)
	}
	a.regions = append(a.regions, geo.Region{Rings: rs})
	return Constraint{
		Kind:   kind,
		Region: &a.regions[len(a.regions)-1],
		Weight: weight,
		Source: source,
	}
}

// PositiveDisk builds a positive constraint: target within radiusKm of a
// pinpoint-known landmark at center.
func PositiveDisk(pr *geo.Projection, center geo.Point, radiusKm, weight float64, source string) Constraint {
	cf, lf := pr.Frame(), geo.NewFrame(center)
	return diskConstraint(Positive, &cf, &lf, radiusKm, weight, source)
}

// NegativeDisk builds a negative constraint: target further than radiusKm
// from a pinpoint-known landmark at center (the excluded region is the
// disk itself).
func NegativeDisk(pr *geo.Projection, center geo.Point, radiusKm, weight float64, source string) Constraint {
	cf, lf := pr.Frame(), geo.NewFrame(center)
	return diskConstraint(Negative, &cf, &lf, radiusKm, weight, source)
}

// PositiveFromRegion builds the positive constraint induced by a secondary
// landmark whose own position is only known as the region beta: the union
// of all radiusKm-disks centred at points of beta, i.e. the Minkowski
// dilation of beta (§2 of the paper: γ = ⋃_{(x,y)∈β} c(x,y,d)).
func PositiveFromRegion(beta *geo.Region, radiusKm, weight float64, source string) Constraint {
	return Constraint{
		Kind:   Positive,
		Region: geo.Buffer(beta, radiusKm, 0),
		Weight: weight,
		Source: source,
	}
}

// NegativeFromRegion builds the negative constraint induced by a secondary
// landmark region beta: only points within radiusKm of EVERY point of beta
// are ruled out (γ = ⋂_{(x,y)∈β} c(x,y,d)). Because Euclidean distance is
// convex, the intersection equals the intersection of disks centred at the
// vertices of beta's convex hull — which is where k unit-weight positive
// disks reach weight k, so the solver finds it: the top level, accepted when
// its weight is k and empty (radiusKm too small to span beta) otherwise.
func NegativeFromRegion(beta *geo.Region, radiusKm, weight float64, source string) Constraint {
	return negativeFromRegion(beta, radiusKm, weight, source, nil)
}

// negativeFromRegion is NegativeFromRegion solving on a scratch pair from
// free's list (a fresh pair when free is nil).
func negativeFromRegion(beta *geo.Region, radiusKm, weight float64, source string, free *LandMaskCache) Constraint {
	verts := hullVertices(beta)
	disks := make([]Constraint, len(verts))
	for i, v := range verts {
		disks[i] = Constraint{Kind: Positive, Region: geo.Disk(v, radiusKm, circleSegments), Weight: 1}
	}
	// γ is at most as wide as one disk, so a hundredth of the radius, kept
	// within [0.2, 4] km, resolves it; one such cell's area as MinAreaKm2
	// stops the level walk at the top level, which always holds a cell.
	cell := math.Min(math.Max(radiusKm/100, 0.2), 4)
	region := geo.EmptyRegion()
	if sol, err := solve(disks, SolverOpts{FineCellKm: cell, MinAreaKm2: cell * cell}, free); err == nil && sol.Weight == float64(len(verts)) {
		region = sol.Region
	}
	return Constraint{Kind: Negative, Region: region, Weight: weight, Source: source}
}

// hullVertices returns the convex hull vertices of all ring points of r.
func hullVertices(r *geo.Region) []geo.Vec2 {
	var pts []hull.P
	for _, ring := range r.Rings {
		for _, v := range ring {
			pts = append(pts, hull.P{X: v.X, Y: v.Y})
		}
	}
	hp := hull.Convex(pts)
	out := make([]geo.Vec2, len(hp))
	for i, p := range hp {
		out[i] = geo.V2(p.X, p.Y)
	}
	return out
}

// LatencyWeight is the paper's §2.4 weighting: confidence decreases
// exponentially with latency, so nearby landmarks dominate when present.
// halfLifeMs is the RTT at which weight halves (the pipeline uses 20 ms).
func LatencyWeight(rttMs, halfLifeMs float64) float64 {
	if halfLifeMs <= 0 {
		return 1
	}
	if rttMs < 0 {
		rttMs = 0
	}
	return math.Exp2(-rttMs / halfLifeMs)
}
