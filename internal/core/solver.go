package core

import (
	"fmt"
	"math"

	"octant/internal/geo"
)

// The weighted constraint solver of §2.4. A discrete solution (pure
// intersection/subtraction) is brittle: one erroneous constraint collapses
// the estimate to the empty set. Octant instead accumulates constraint
// weights over the plane and returns the union of the highest-weight
// regions, descending by weight, until the result exceeds a size threshold.
//
// The solver overlays constraints on a weight grid (positive add, negative
// subtract, hard masks exclude), then extracts a level set — robust for
// dozens of overlapping constraints, and refined in a second pass at fine
// resolution around the first answer. An arrangement solver over pairwise
// boolean operations (exponential in the worst case) cross-validates it on
// generated constraint sets in the tests.

// SolverOpts configures the weighted solve.
type SolverOpts struct {
	// MinAreaKm2 is the size threshold: weight levels are unioned in
	// descending order until the region reaches this area (default 500).
	MinAreaKm2 float64
	// FineCellKm is the resolution of the refinement pass (default 4 km,
	// clamped so the fine grid stays within budget).
	FineCellKm float64
	// LandRegions, when non-empty, restricts solutions to the union of
	// these regions (the §2.5 ocean/uninhabitable negative constraint,
	// applied as a hard mask).
	LandRegions []*geo.Region
	// Masks, when non-nil, caches rasterized LandRegions masks so the
	// coarse pass, the fine pass, and every other solve sharing the cache
	// (all targets of a batch run against one Survey) skip re-rasterizing
	// the fixed land polygons. Nil falls back to direct rasterization.
	Masks *LandMaskCache
}

// coarseCells is the target cell count across the larger extent axis for
// the first raster pass.
const coarseCells = 384

func (o *SolverOpts) fillDefaults() {
	if o.MinAreaKm2 == 0 {
		o.MinAreaKm2 = 500
	}
	if o.FineCellKm == 0 {
		o.FineCellKm = 4
	}
}

// Solution is the outcome of a weighted constraint solve.
type Solution struct {
	// Region is the estimated location region β.
	Region *geo.Region
	// Weight is the constraint weight captured by the region's
	// highest-weight cells.
	Weight float64
	// Point is the weight-averaged point estimate.
	Point geo.Vec2
	// CellKm is the resolution the final extraction used.
	CellKm float64
}

// Solve runs the weighted solver over the constraints.
func Solve(constraints []Constraint, opts SolverOpts) (*Solution, error) {
	return solve(constraints, opts, opts.Masks)
}

// solve is Solve on a scratch pair taken from free's list and handed back
// on return; its grids come unzeroed, as ResolveTop stores every cell a pass
// reads, and no Solution holds scratch memory. free is not opts.Masks for
// the secondary landmark's solve, whose passes go uncounted.
func solve(constraints []Constraint, opts SolverOpts, free *LandMaskCache) (*Solution, error) {
	sc := free.takeScratch()
	defer free.putScratch(sc)
	opts.fillDefaults()
	var buf [128]geo.Fill // a localization's hundred-odd constraints, off the heap
	fills, min, max, ok := prepareFills(buf[:0], constraints)
	if !ok {
		return nil, fmt.Errorf("core: no positive constraints to solve")
	}
	for i := range fills {
		opts.Masks.countRoute(&fills[i])
	}

	// Pass 1: coarse grid over the union of positive-constraint extents.
	// The raw cell size span/coarseCells is quantized onto the
	// {FineCellKm · 2^k} lattice the fine pass already uses, so the land
	// masks rasterized at coarse resolution are shared across targets
	// (each target's constraint extent differs, but the handful of
	// quantized cell sizes repeat).
	span := math.Max(max.X-min.X, max.Y-min.Y)
	coarse := quantizeCellKm(span/coarseCells, opts.FineCellKm)
	cp := solveOnGrid(sc.coarse.Grid(min, max, coarse), fills, coarse, &opts)
	if cp.empty() {
		return cp.solution(), nil
	}
	// Pass 2: refine around the coarse answer when it is small enough to
	// benefit. All the fine pass needs from the coarse one is where its
	// answer lies, so the coarse rings are traced only if they turn out to
	// be the ones returned.
	rmin, rmax := cp.g.BoxBounds(cp.top.Box)
	pad := 4 * coarse
	rmin = geo.V2(rmin.X-pad, rmin.Y-pad)
	rmax = geo.V2(rmax.X+pad, rmax.Y+pad)
	fine := opts.FineCellKm
	// Keep the fine grid within ~1M cells.
	for (rmax.X-rmin.X)*(rmax.Y-rmin.Y)/(fine*fine) > 1<<20 {
		fine *= 2
	}
	if fine < coarse {
		fp := solveOnGrid(sc.fine.Grid(rmin, rmax, fine), fills, fine, &opts)
		if !fp.empty() {
			return fp.solution(), nil
		}
	}
	opts.Masks.countCoarseTrace()
	return cp.solution(), nil
}

// quantizeCellKm snaps a raw cell size to the nearest power-of-two
// multiple of the fine resolution (never below it). Solve grids then draw
// their cell sizes from a small shared set instead of a per-target
// continuum — the property the land-mask cache keys on.
func quantizeCellKm(raw, fine float64) float64 {
	if raw <= fine || fine <= 0 {
		return fine
	}
	k := math.Round(math.Log2(raw / fine))
	if k < 0 {
		k = 0
	}
	return fine * math.Exp2(k)
}

// prepareFills walks the constraints once: it drops the empty ones, signs
// the weights, and returns the fills (appended to buf) with the union
// extent [min, max] of the positive regions. ok is false when no positive
// constraint is left.
func prepareFills(buf []geo.Fill, constraints []Constraint) (fills []geo.Fill, min, max geo.Vec2, ok bool) {
	fills = buf
	for _, c := range constraints {
		w := c.Weight
		switch c.Kind {
		case Positive:
		case Negative:
			w = -w
		default:
			continue
		}
		f, filled := geo.PrepareFill(c.Region, w)
		if !filled {
			continue
		}
		fills = append(fills, f)
		if c.Kind != Positive {
			continue
		}
		if !ok {
			min, max, ok = f.Min, f.Max, true
			continue
		}
		min.X = math.Min(min.X, f.Min.X)
		min.Y = math.Min(min.Y, f.Min.Y)
		max.X = math.Max(max.X, f.Max.X)
		max.Y = math.Max(max.Y, f.Max.Y)
	}
	return fills, min, max, ok
}

// gridPass is one solver pass after the fused resolve: the grid, still
// holding its resolved and masked weights, and the level the walk chose.
type gridPass struct {
	g      *geo.Grid
	cellKm float64 // as requested; g.CellKm may be coarser under NewGrid's cap
	top    geo.TopLevel
}

// excluded marks cells ruled out by the hard land mask.
const excluded = -math.MaxFloat64

// solveOnGrid sums the constraint weights on g, asked for at cellKm, and
// finds the best level set exceeding the size threshold — one pass over the
// grid (geo.Grid.ResolveTop). Extraction is left to solution, which the
// coarse pass of a refined solve never needs.
func solveOnGrid(g *geo.Grid, fills []geo.Fill, cellKm float64, opts *SolverOpts) gridPass {
	// Hard mask: rule out everything outside land, resolving land
	// membership from the shared mask cache when one is available.
	var land *geo.MaskLattice
	if len(opts.LandRegions) > 0 {
		land = opts.Masks.lattice(opts.LandRegions, g)
		if land == nil {
			// Rasterized onto the grid's own lattice, the mask maps
			// cell for cell.
			land = geo.NewMaskLattice(g, opts.LandRegions)
		}
	}
	top := g.ResolveTop(fills, land, excluded, opts.MinAreaKm2)
	opts.Masks.countPass(top, g.H)
	return gridPass{g: g, cellKm: cellKm, top: top}
}

// empty reports whether the pass's answer holds no cell: nothing on the
// grid is positive.
func (p *gridPass) empty() bool { return p.top.Best <= 0 }

// solution extracts the pass's answer: the chosen level set traced into a
// region, and the point estimate. Both read only the level's bounding box.
func (p *gridPass) solution() *Solution {
	best := p.top.Best
	if best <= 0 {
		return &Solution{Region: geo.EmptyRegion(), CellKm: p.cellKm}
	}
	g, box := p.g, p.top.Box
	region := g.ThresholdIn(p.top.Level, box)
	// Point estimate from the HIGHEST-weight cells only: the size
	// threshold grows the reported region (for containment guarantees)
	// without diluting the point estimate. The cell that names best is one
	// of them, so the weights sum to more than 0.
	var sw, sx, sy float64
	floor := geo.LevelFloor(best)
	for y := box.Y0; y <= box.Y1; y++ {
		for x := box.X0; x <= box.X1; x++ {
			w := g.Weight[y*g.W+x]
			if w < floor {
				continue
			}
			c := g.CellCenter(x, y)
			sw += w
			sx += w * c.X
			sy += w * c.Y
		}
	}
	return &Solution{Region: region, Weight: best, Point: geo.V2(sx/sw, sy/sw), CellKm: p.cellKm}
}
