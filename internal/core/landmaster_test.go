package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"octant/internal/geo"
)

// benchLand is the benchmark world's land outlines, projected as its
// survey projects them.
func benchLand(t testing.TB) []*geo.Region {
	t.Helper()
	loc, _ := fusedFixture(t, 1, 16, 16)
	return loc.projContext().Land
}

// masterGrid is the lattice geometry of the master LandMaskCache builds for
// regions at cellKm.
func masterGrid(regions []*geo.Region, cellKm float64) (maskKey, *geo.Grid) {
	key, _ := keyFor(regions)
	key.cellKm = cellKm
	w, h := masterDims(key)
	return key, &geo.Grid{Min: geo.V2(key.minX-cellKm, key.minY-cellKm), CellKm: cellKm, W: w, H: h}
}

// checkLattice holds NewMaskLattice over regions to landCells, cell for
// cell, and its runs to their shape: in the lattice, ascending, disjoint
// and never adjacent.
func checkLattice(t *testing.T, name string, g *geo.Grid, regions []*geo.Region) {
	t.Helper()
	m := geo.NewMaskLattice(g, regions)
	if len(m.Rows) != g.H+1 || m.Rows[0] != 0 || int(m.Rows[g.H]) != len(m.Spans) {
		t.Fatalf("%s: %d row offsets from %v to %v over %d runs, want %d", name, len(m.Rows), m.Rows[0], m.Rows[len(m.Rows)-1], len(m.Spans), g.H+1)
	}
	want := landCells(g, regions)
	got := make([]bool, g.W*g.H)
	for y := 0; y < g.H; y++ {
		end := int32(-1)
		for _, s := range m.Spans[m.Rows[y]:m.Rows[y+1]] {
			if s[0] <= end || s[0] >= s[1] || s[0] < 0 || int(s[1]) > g.W {
				t.Fatalf("%s: row %d holds run %v after one ending at %d, lattice %d wide", name, y, s, end, g.W)
			}
			end = s[1]
			for x := s[0]; x < s[1]; x++ {
				got[y*g.W+int(x)] = true
			}
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: cell (%d, %d) of %d × %d is %v, region by region %v", name, i%g.W, i/g.W, g.W, g.H, got[i], want[i])
		}
	}
}

// TestLandMaskMatchesRaster: the one sweep that builds a mask agrees, cell
// for cell, with rasterizing its regions one by one — on the benchmark
// world's land at every cell size a solve there asks for, and on generated
// sets that overlap, touch, fill another's hole, wind clockwise, or lie
// partly or wholly off the lattice.
func TestLandMaskMatchesRaster(t *testing.T) {
	land := benchLand(t)
	for _, cell := range []float64{4, 8, 16, 32, 64} {
		_, g := masterGrid(land, cell)
		checkLattice(t, "bench world", g, land)
	}

	reversed := func(r *geo.Region) *geo.Region {
		out := &geo.Region{}
		for _, ring := range r.Rings {
			ring = slices.Clone(ring)
			slices.Reverse(ring)
			out.Rings = append(out.Rings, ring)
		}
		return out
	}
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 35))
		cell := 0.5 + rng.Float64()*2
		g := &geo.Grid{Min: geo.V2(rng.Float64()*10-5, rng.Float64()*10-5), CellKm: cell, W: 1 + rng.IntN(60), H: 1 + rng.IntN(60)}
		span := geo.V2(float64(g.W)*cell, float64(g.H)*cell)
		// at draws a point in the lattice widened by half its extent on
		// every side, so shapes reach off it, and some lie wholly beyond.
		at := func() geo.Vec2 {
			return geo.V2(g.Min.X+(rng.Float64()*2-0.5)*span.X, g.Min.Y+(rng.Float64()*2-0.5)*span.Y)
		}
		// centreX is a column's centre: a rectangle edge there makes a
		// crossing land exactly on a cell centre.
		centreX := func() float64 { return g.Min.X + (float64(rng.IntN(g.W))+0.5)*cell }
		var regions []*geo.Region
		for n := 1 + rng.IntN(6); len(regions) < n; {
			switch rng.IntN(6) {
			case 0: // a disk
				regions = append(regions, geo.Disk(at(), rng.Float64()*span.Len()/3, 3+rng.IntN(40)))
			case 1: // two rectangles touching at a column centre
				a, b, c := centreX(), centreX(), centreX()
				a, b, c = min(a, b, c)-cell, a+b+c-min(a, b, c)-max(a, b, c), max(a, b, c)+cell
				lo, hi := at(), at()
				y0, y1 := min(lo.Y, hi.Y), max(lo.Y, hi.Y)+cell
				regions = append(regions, geo.Rect(geo.V2(a, y0), geo.V2(b, y1)), geo.Rect(geo.V2(b, y0), geo.V2(c, y1)))
			case 2: // a ring with a hole, and a region over the hole
				c, r := at(), (0.2+rng.Float64())*span.Len()/4
				outer, hole := geo.Disk(c, r, 24), reversed(geo.Disk(c, r/2, 16))
				regions = append(regions, &geo.Region{Rings: append(outer.Rings, hole.Rings...)}, geo.Disk(c, r*rng.Float64(), 12))
			case 3: // clockwise: its winding is −1 inside, and it still counts
				regions = append(regions, reversed(geo.Disk(at(), rng.Float64()*span.Len()/3, 3+rng.IntN(20))))
			case 4: // a rectangle
				lo, hi := at(), at()
				regions = append(regions, geo.Rect(geo.V2(min(lo.X, hi.X), min(lo.Y, hi.Y)), geo.V2(max(lo.X, hi.X)+cell, max(lo.Y, hi.Y)+cell)))
			default: // nothing
				regions = append(regions, []*geo.Region{nil, geo.EmptyRegion()}[rng.IntN(2)])
			}
		}
		checkLattice(t, "generated", g, regions)
	}
}

// TestLandMasterAllocBudget: the 4 km master of the benchmark world's land
// is its runs, about 26 KB, not a 2,433 × 2,209 raster (5.4 MB).
func TestLandMasterAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("testing.Benchmark run is not short")
	}
	land := benchLand(t)
	key, _ := masterGrid(land, 4)
	// A solve builds a master on the grid it solves, whose Scratch the
	// sweep's edge table comes from; one Scratch serves every build here.
	g := new(geo.Scratch).Grid(geo.V2(0, 0), geo.V2(4, 4), 4)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			(&maskEntry{}).build(key, land, g)
		}
	})
	const maxBytes = 64 << 10
	if got := res.AllocedBytesPerOp(); got > maxBytes {
		t.Errorf("a 4 km master allocates %d B, budget is %d", got, maxBytes)
	}
	e := &maskEntry{}
	e.build(key, land, g)
	t.Logf("4 km master: %d × %d cells, %d runs; %d B, %d allocs per build", e.lat.W, e.lat.H, len(e.lat.Spans), res.AllocedBytesPerOp(), res.AllocsPerOp())
}

// BenchmarkLandMasterBuild builds the benchmark world's land-mask master
// at each cell size a solve there asks for.
func BenchmarkLandMasterBuild(b *testing.B) {
	land := benchLand(b)
	g := new(geo.Scratch).Grid(geo.V2(0, 0), geo.V2(4, 4), 4)
	for _, cell := range []float64{4, 8, 16, 32, 64} {
		key, _ := masterGrid(land, cell)
		b.Run(fmt.Sprintf("%gkm", cell), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				(&maskEntry{}).build(key, land, g)
			}
		})
	}
}
