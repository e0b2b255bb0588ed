package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"octant/internal/geo"
)

// The differential oracle for the fused solver: the six-pass solver body
// exactly as it ran in production before geo.Grid.ResolveTop replaced it —
// FlushAdds, LandMaskCache.Apply, LevelSets (two passes), Threshold, the
// whole-grid centroid walk — and the two-pass driver that traced the
// coarse pass eagerly. Membership of a level is a raw weight at or above
// geo.LevelFloor, as in the kernel, since levels and membership share one
// quantization. The production solver must agree with it bit for
// bit: rings, point, weight, and the coarse bounding box the fine pass is
// placed by.

func referenceSolveOnGrid(constraints []Constraint, min, max geo.Vec2, cellKm float64, opts SolverOpts) *Solution {
	g := geo.NewGrid(min, max, cellKm)
	for _, c := range constraints {
		if c.Region.IsEmpty() {
			continue
		}
		switch c.Kind {
		case Positive:
			g.AddRegionBatched(c.Region, c.Weight)
		case Negative:
			g.AddRegionBatched(c.Region, -c.Weight)
		}
	}
	g.FlushAdds()
	if len(opts.LandRegions) > 0 {
		if !opts.Masks.Apply(g, opts.LandRegions, excluded) {
			land := landCells(g, opts.LandRegions)
			for i := range g.Weight {
				if !land[i] {
					g.Weight[i] = excluded
				}
			}
		}
	}
	levels, cells := g.LevelSets()
	if len(levels) == 0 {
		return &Solution{Region: geo.EmptyRegion(), CellKm: cellKm}
	}
	best := levels[0]
	if best <= 0 {
		return &Solution{Region: geo.EmptyRegion(), CellKm: cellKm}
	}
	level := best
	for i, l := range levels {
		if l <= 0 {
			break
		}
		level = l
		if float64(cells[i])*g.CellArea() >= opts.MinAreaKm2 {
			break
		}
	}
	region := g.Threshold(level)
	var sw, sx, sy float64
	floor := geo.LevelFloor(best)
	i := 0
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			w := g.Weight[i]
			i++
			if w < floor {
				continue
			}
			c := g.CellCenter(x, y)
			sw += w
			sx += w * c.X
			sy += w * c.Y
		}
	}
	return &Solution{Region: region, Weight: best, Point: geo.V2(sx/sw, sy/sw), CellKm: cellKm}
}

// referenceSolve is the raster half of Solve as it was: coarse pass traced
// eagerly, fine pass placed by the coarse region's bounding box.
func referenceSolve(constraints []Constraint, opts SolverOpts) *Solution {
	opts.fillDefaults()
	var positives []Constraint
	for _, c := range constraints {
		if c.Kind == Positive && !c.Region.IsEmpty() {
			positives = append(positives, c)
		}
	}
	min, max := constraintExtent(positives)
	span := math.Max(max.X-min.X, max.Y-min.Y)
	coarse := quantizeCellKm(span/coarseCells, opts.FineCellKm)
	sol := referenceSolveOnGrid(constraints, min, max, coarse, opts)
	if sol.Region.IsEmpty() {
		return sol
	}
	rmin, rmax, ok := sol.Region.BoundingBox()
	if !ok {
		return sol
	}
	pad := 4 * coarse
	rmin = geo.V2(rmin.X-pad, rmin.Y-pad)
	rmax = geo.V2(rmax.X+pad, rmax.Y+pad)
	fine := opts.FineCellKm
	for (rmax.X-rmin.X)*(rmax.Y-rmin.Y)/(fine*fine) > 1<<20 {
		fine *= 2
	}
	if fine >= coarse {
		return sol
	}
	refined := referenceSolveOnGrid(constraints, rmin, rmax, fine, opts)
	if refined.Region.IsEmpty() {
		return sol
	}
	return refined
}

// sameSolution asserts bit-identity of everything a Solution carries.
func sameSolution(t testing.TB, name string, got, want *Solution) {
	t.Helper()
	if !reflect.DeepEqual(got.Region.Rings, want.Region.Rings) {
		t.Errorf("%s: rings differ: %d rings, area %v vs %d rings, area %v", name,
			len(got.Region.Rings), got.Region.Area(), len(want.Region.Rings), want.Region.Area())
	}
	if math.Float64bits(got.Point.X) != math.Float64bits(want.Point.X) ||
		math.Float64bits(got.Point.Y) != math.Float64bits(want.Point.Y) {
		t.Errorf("%s: point %v, oracle %v", name, got.Point, want.Point)
	}
	if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
		t.Errorf("%s: weight %v, oracle %v", name, got.Weight, want.Weight)
	}
	if got.CellKm != want.CellKm {
		t.Errorf("%s: cell %v km, oracle %v km", name, got.CellKm, want.CellKm)
	}
}

// checkPass runs one grid pass through the fused kernel — on a poisoned
// grid: the kernel stores what it goes on to read — and through the oracle
// and compares them, including the bounding box a coarse pass would
// hand the fine one. It returns the fused pass's level read-out.
func checkPass(t testing.TB, name string, cs []Constraint, min, max geo.Vec2, cellKm float64, opts SolverOpts) geo.TopLevel {
	t.Helper()
	opts.fillDefaults()
	fills, _, _, _ := prepareFills(nil, cs)
	p := solveOnGrid(poisonedGrid(new(geo.Scratch), min, max, cellKm), fills, cellKm, &opts)
	got := p.solution()
	want := referenceSolveOnGrid(cs, min, max, cellKm, opts)
	sameSolution(t, name, got, want)
	wmin, wmax, ok := want.Region.BoundingBox()
	if boxed := !p.empty(); boxed != ok {
		t.Errorf("%s: fused pass has a box: %v, oracle region has one: %v", name, boxed, ok)
	} else if ok {
		if gmin, gmax := p.g.BoxBounds(p.top.Box); gmin != wmin || gmax != wmax {
			t.Errorf("%s: box [%v %v], oracle region's [%v %v]", name, gmin, gmax, wmin, wmax)
		}
	}
	return p.top
}

// TestFusedMatchesOracleOnWorlds: every target of two simulated worlds,
// under every solver-facing configuration, solved by the fused solver and
// by the six-pass oracle from the same constraint set.
func TestFusedMatchesOracleOnWorlds(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 2 worlds × 5 configurations × 16 targets twice")
	}
	// A secondary landmark known only as two blobs a continent apart: its
	// dilation has several rings, so its constraint is one the row kernel
	// must step through the edge table, between two-cursor disks.
	blobs := &geo.Region{Rings: []geo.Ring{
		geo.Disk(geo.V2(-700, 300), 90, 24).Rings[0],
		geo.Disk(geo.V2(1100, -500), 140, 32).Rings[0],
	}}
	configs := []struct {
		name string
		opts []LocalizeOption
	}{
		{"default", nil},
		{"min-area-500", []LocalizeOption{WithMinAreaKm2(500)}},
		{"min-area-2e6", []LocalizeOption{WithMinAreaKm2(2e6)}},
		{"no-oceans", []LocalizeOption{WithoutSource(SourceGeography)}},
		{"secondary", []LocalizeOption{WithSecondary(blobs, 12)}},
	}
	for _, seed := range []uint64{1, 9} {
		base, targets := fusedFixture(t, seed, 16, 16)
		for _, tc := range configs {
			loc := NewLocalizer(base.Prober, base.Survey, Config{})
			o := NewLocalizeOptions(tc.opts...)
			sopts := SolverOpts{MinAreaKm2: minRegionAreaKm2, Masks: loc.LandMasks()}
			if o.MinAreaKm2 > 0 {
				sopts.MinAreaKm2 = o.MinAreaKm2
			}
			if !o.sourceOff(SourceGeography) {
				sopts.LandRegions = loc.projContext().Land
			}
			for _, target := range targets {
				name := tc.name + "/" + target
				res, err := loc.LocalizeContext(context.Background(), target, tc.opts...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := Solve(res.Constraints, sopts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// The options above are the ones Localize solved under.
				if !reflect.DeepEqual(got.Region.Rings, res.Region.Rings) {
					t.Fatalf("%s: Solve under the reconstructed options differs from Localize's region", name)
				}
				sameSolution(t, name, got, referenceSolve(res.Constraints, sopts))

				// And pass by pass, for the coarse bounding box.
				_, min, max, coarse := coarseGrid(res.Constraints, sopts)
				checkPass(t, name+"/coarse", res.Constraints, min, max, coarse, sopts)
			}
			if general := loc.LandMasks().SolverStats().GeneralFills; (general > 0) != (o.Secondary != nil) {
				t.Errorf("%s: %d constraints took the edge-table route", tc.name, general)
			}
		}
	}
}

// coarseGrid returns the fills, extent and cell size of the coarse pass Solve
// runs for the constraints under opts.
func coarseGrid(cs []Constraint, opts SolverOpts) (fills []geo.Fill, min, max geo.Vec2, cellKm float64) {
	opts.fillDefaults()
	fills, min, max, _ = prepareFills(nil, cs)
	span := math.Max(max.X-min.X, max.Y-min.Y)
	return fills, min, max, quantizeCellKm(span/coarseCells, opts.FineCellKm)
}

// constraintExtent returns the union bounding box of constraint regions.
func constraintExtent(cs []Constraint) (min, max geo.Vec2) {
	first := true
	for _, c := range cs {
		lo, hi, ok := c.Region.BoundingBox()
		if !ok {
			continue
		}
		if first {
			min, max, first = lo, hi, false
			continue
		}
		min.X = math.Min(min.X, lo.X)
		min.Y = math.Min(min.Y, lo.Y)
		max.X = math.Max(max.X, hi.X)
		max.Y = math.Max(max.Y, hi.Y)
	}
	return min, max
}

// oracleCellKm is the resolution every boolean operation of solveExact
// rasterizes at, each on a lattice placed by its own operands — half the
// solver's fine cell.
const oracleCellKm = 2

// solveExact is the arrangement solver that served Config.Exact, kept as
// the reference TestSolveExactMatchesRaster holds the raster solver to:
// it maintains the arrangement of constraints as disjoint weighted cells,
// split and merged by pairwise raster booleans — exact in name only, an
// independent route to the same answer at twice the resolution.
// Worst-case exponential; intended for ≤ ~12 constraints.
func solveExact(constraints []Constraint, opts SolverOpts) (*Solution, error) {
	type cell struct {
		region *geo.Region
		weight float64
	}
	min, max := constraintExtent(constraints)
	pad := math.Max(max.X-min.X, max.Y-min.Y)*0.05 + 10
	universe := geo.Rect(geo.V2(min.X-pad, min.Y-pad), geo.V2(max.X+pad, max.Y+pad))
	cells := []cell{{region: universe, weight: 0}}
	bopts := &geo.BoolOpts{CellKm: oracleCellKm}
	const maxCells = 4096
	for _, c := range constraints {
		if c.Region.IsEmpty() {
			continue
		}
		delta := c.Weight
		if c.Kind == Negative {
			delta = -c.Weight
		}
		var next []cell
		for _, cl := range cells {
			in := geo.Intersect(cl.region, c.Region, bopts)
			out := geo.Subtract(cl.region, c.Region, bopts)
			if !in.IsEmpty() {
				next = append(next, cell{in, cl.weight + delta})
			}
			if !out.IsEmpty() {
				next = append(next, cell{out, cl.weight})
			}
		}
		if len(next) > maxCells {
			return nil, fmt.Errorf("core: exact solver arrangement exploded (%d cells); use the raster engine", len(next))
		}
		cells = next
	}
	// Mask to land if requested.
	if len(opts.LandRegions) > 0 {
		land := unionAll(opts.LandRegions, bopts)
		var masked []cell
		for _, cl := range cells {
			in := geo.Intersect(cl.region, land, bopts)
			if !in.IsEmpty() {
				masked = append(masked, cell{in, cl.weight})
			}
		}
		cells = masked
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].weight > cells[j].weight })
	if len(cells) == 0 || cells[0].weight <= 0 {
		return &Solution{Region: geo.EmptyRegion()}, nil
	}
	var acc *geo.Region
	var area float64
	level := cells[0].weight
	for _, cl := range cells {
		if cl.weight <= 0 {
			break
		}
		if area >= opts.MinAreaKm2 && cl.weight < level {
			break
		}
		level = cl.weight
		if acc == nil {
			acc = cl.region.Clone()
		} else {
			acc = geo.Union(acc, cl.region, bopts)
		}
		area = acc.Area()
	}
	if acc == nil {
		acc = geo.EmptyRegion()
	}
	return &Solution{
		Region: acc,
		Weight: cells[0].weight,
		Point:  acc.Centroid(),
	}, nil
}

// unionAll unions regions pairwise, divide and conquer, so the
// intermediate regions stay balanced.
func unionAll(regions []*geo.Region, opts *geo.BoolOpts) *geo.Region {
	switch len(regions) {
	case 0:
		return geo.EmptyRegion()
	case 1:
		return regions[0].Clone()
	}
	mid := len(regions) / 2
	return geo.Union(unionAll(regions[:mid], opts), unionAll(regions[mid:], opts), opts)
}
