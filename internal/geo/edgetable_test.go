package geo

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// naiveFillMask rasterizes r with the retained naive reference (scanRow via
// rowSpans): every edge of every ring is tested against every grid row.
func naiveFillMask(g *Grid, r *Region) []bool {
	mask := make([]bool, g.W*g.H)
	if r == nil || len(r.Rings) == 0 {
		return mask
	}
	var buf []crossing
	for y := 0; y < g.H; y++ {
		row := y * g.W
		buf = g.rowSpans(r, y, buf, func(x0, x1 int) {
			for x := x0; x <= x1; x++ {
				mask[row+x] = true
			}
		})
	}
	return mask
}

// randomRegion builds an adversarial region: 1–3 rings of 3–40 random
// vertices each (self-intersections and degenerate slivers welcome — the
// winding rule must handle them), optionally reversed rings acting as
// holes, sometimes disconnected, sometimes hanging off the grid edge.
func randomRegion(rng *rand.Rand) *Region {
	nRings := 1 + rng.Intn(3)
	rings := make([]Ring, 0, nRings)
	for r := 0; r < nRings; r++ {
		n := 3 + rng.Intn(38)
		cx := rng.Float64()*60 - 30
		cy := rng.Float64()*60 - 30
		scale := 2 + rng.Float64()*25
		ring := make(Ring, n)
		for i := range ring {
			ring[i] = Vec2{
				X: cx + (rng.Float64()*2-1)*scale,
				Y: cy + (rng.Float64()*2-1)*scale,
			}
		}
		if rng.Intn(3) == 0 {
			reverseRing(ring)
		}
		// Occasionally snap vertices onto cell-centre rows to exercise the
		// inclusive/exclusive scanline boundaries.
		if rng.Intn(4) == 0 {
			for i := range ring {
				ring[i].Y = math.Round(ring[i].Y*2) / 2
			}
		}
		rings = append(rings, ring)
	}
	return &Region{Rings: rings}
}

// TestEdgeTableMatchesNaive is the equivalence property test: across
// randomized non-convex, self-intersecting, disconnected, and holed
// regions, the edge-table rasterizer must produce cell-for-cell identical
// output to the naive scanRow reference.
func TestEdgeTableMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randomRegion(rng)
		cell := 0.3 + rng.Float64()*2
		g := NewGrid(V2(-25, -25), V2(25, 25), cell)
		got := g.RasterizeRegion(r)
		want := naiveFillMask(g, r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: cell (%d,%d) edge-table=%v naive=%v (region %v)",
					seed, i%g.W, i/g.W, got[i], want[i], r)
			}
		}
	}
}

// TestEdgeTableMatchesNaiveStructured repeats the equivalence check on the
// structured shapes the solver actually rasterizes: disks, annuli (holes),
// and disjoint unions.
func TestEdgeTableMatchesNaiveStructured(t *testing.T) {
	shapes := []*Region{
		Disk(V2(0, 0), 18, 96),
		Annulus(V2(-4, 3), 7, 17, 128),
		{Rings: append(append([]Ring{}, Disk(V2(-12, -12), 6, 64).Rings...),
			Disk(V2(12, 12), 6, 64).Rings...)}, // disconnected
		Rect(V2(-20, -3), V2(20, 3)),
	}
	for si, r := range shapes {
		g := NewGrid(V2(-25, -25), V2(25, 25), 0.4)
		got := g.RasterizeRegion(r)
		want := naiveFillMask(g, r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shape %d: cell (%d,%d) edge-table=%v naive=%v",
					si, i%g.W, i/g.W, got[i], want[i])
			}
		}
	}
}

// TestBatchedFillMatchesAddRegion pins the row-difference fill path — the
// solver's only weight-write path since the batched rewrite — to the
// per-cell AddRegion reference over randomized constraint stacks. The
// prefix-sum arithmetic is not bit-identical to sequential adds (span
// entry/exit cancellation can leave one-ULP residue), so agreement is
// required to well inside the solver's 1e-9 weight quantum.
func TestBatchedFillMatchesAddRegion(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nCons := 1 + rng.Intn(6)
		regions := make([]*Region, nCons)
		weights := make([]float64, nCons)
		for i := range regions {
			regions[i] = randomRegion(rng)
			weights[i] = (rng.Float64()*2 - 0.5) * (1 + rng.Float64())
		}
		cell := 0.3 + rng.Float64()*2
		ref := NewGrid(V2(-25, -25), V2(25, 25), cell)
		bat := NewGrid(V2(-25, -25), V2(25, 25), cell)
		for i, r := range regions {
			ref.AddRegion(r, weights[i])
			bat.AddRegionBatched(r, weights[i])
		}
		bat.FlushAdds()
		for i := range ref.Weight {
			if d := math.Abs(ref.Weight[i] - bat.Weight[i]); d > 1e-12 {
				t.Fatalf("seed %d: cell (%d,%d) AddRegion=%g batched=%g (Δ %g)",
					seed, i%ref.W, i/ref.W, ref.Weight[i], bat.Weight[i], d)
			}
		}
	}
}

// TestFlushAddsIdempotent checks that FlushAdds with nothing batched is a
// no-op and that a flushed grid can batch and flush again.
func TestFlushAddsIdempotent(t *testing.T) {
	g := NewGrid(V2(-10, -10), V2(10, 10), 1)
	g.FlushAdds() // nothing batched
	disk := Disk(V2(0, 0), 5, 32)
	g.AddRegionBatched(disk, 1)
	g.FlushAdds()
	g.AddRegionBatched(disk, 1)
	g.FlushAdds()
	g.FlushAdds()
	want := NewGrid(V2(-10, -10), V2(10, 10), 1)
	want.AddRegion(disk, 2)
	for i := range want.Weight {
		if math.Abs(want.Weight[i]-g.Weight[i]) > 1e-12 {
			t.Fatalf("cell %d: want %g got %g", i, want.Weight[i], g.Weight[i])
		}
	}
}

// TestParallelFillConcurrentGrids fills independent grids from several
// goroutines at once — the shape of a batch solve — so -race can observe
// any buffer they share: weights, edge tables and sweep scratch are each
// grid's own.
func TestParallelFillConcurrentGrids(t *testing.T) {
	region := Annulus(V2(0, 0), 8, 22, 256)
	want := math.Pi * (22*22 - 8*8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				g := NewGrid(V2(-30, -30), V2(30, 30), 0.25)
				g.AddRegion(region, 1)
				if got := g.AreaAtOrAbove(1); math.Abs(got-want) > want*0.05 {
					t.Errorf("annulus area %v, want ≈ %v", got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestLevelSetsMatchesAreaAtOrAbove cross-checks the one-pass level census
// against the brute-force per-level scan.
func TestLevelSetsMatchesAreaAtOrAbove(t *testing.T) {
	g := NewGrid(V2(-30, -30), V2(30, 30), 0.5)
	g.AddRegion(Disk(V2(-5, 0), 12, 96), 1)
	g.AddRegion(Disk(V2(5, 0), 12, 96), 0.6)
	g.AddRegion(Disk(V2(0, 5), 9, 96), 0.3)
	levels, cells := g.LevelSets()
	if len(levels) != len(cells) {
		t.Fatalf("levels/cells length mismatch: %d vs %d", len(levels), len(cells))
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] >= levels[i-1] {
			t.Fatalf("levels not strictly descending: %v", levels)
		}
	}
	for i, l := range levels {
		want := g.AreaAtOrAbove(l)
		got := float64(cells[i]) * g.CellArea()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("level %v: census area %v, AreaAtOrAbove %v", l, got, want)
		}
	}
}

// annulus512 is the worst observed constraint shape: a 512-vertex annulus
// (positive disk + negative ring) at fine solver resolution.
func annulus512() (*Grid, *Region) {
	g := NewGrid(V2(-600, -600), V2(600, 600), 4)
	return g, Annulus(V2(0, 0), 380, 520, 512)
}

// BenchmarkAddRegionAnnulus512 measures one AddRegion of the 512-vertex
// annulus at fine (4 km) resolution — the worst observed shape.
func BenchmarkAddRegionAnnulus512(b *testing.B) {
	g, r := annulus512()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddRegion(r, 1)
	}
}

// BenchmarkAddRegionAnnulus512Naive is the same fill through the naive
// reference rasterizer, for the edge-table speedup headline.
func BenchmarkAddRegionAnnulus512Naive(b *testing.B) {
	g, r := annulus512()
	b.ReportAllocs()
	b.ResetTimer()
	var buf []crossing
	for i := 0; i < b.N; i++ {
		for y := 0; y < g.H; y++ {
			row := y * g.W
			buf = g.rowSpans(r, y, buf, func(x0, x1 int) {
				for x := x0; x <= x1; x++ {
					g.Weight[row+x]++
				}
			})
		}
	}
}

// TestScratchHandsBackEdgeTables: every sweep hands its edge table back to
// the grid's Scratch — ResolveTop's general fills, a mask build and a span
// visit — so a Scratch serving pass after pass keeps as many tables as one
// pass holds at once: one per general fill.
func TestScratchHandsBackEdgeTables(t *testing.T) {
	regions := []*Region{Annulus(V2(-3, 0), 2, 6, 32), Annulus(V2(3, 0), 2, 6, 32)}
	var s Scratch
	for pass := 0; pass < 3; pass++ {
		g := s.Grid(V2(-10, -10), V2(10, 10), 0.5)
		var fills []Fill
		for _, r := range regions {
			f, ok := PrepareFill(r, 1)
			if !ok || !f.General() {
				t.Fatalf("an annulus prepares (%v) for the edge table (%v)", ok, f.General())
			}
			fills = append(fills, f)
		}
		g.ResolveTop(fills, nil, 0, 1)
		NewMaskLattice(g, regions)
		g.RasterizeRegion(regions[0])
		if s.out != 0 || len(s.tables) != len(fills) {
			t.Fatalf("pass %d: %d of %d tables still out, want 0 of %d", pass, s.out, len(s.tables), len(fills))
		}
	}
}
