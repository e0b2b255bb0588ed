package core

import (
	"math"
	"sync"
	"testing"

	"octant/internal/geo"
)

// landCells is the union of regions on g, rasterized region by region: the
// reference every land mask is held to.
func landCells(g *geo.Grid, regions []*geo.Region) []bool {
	land := make([]bool, g.W*g.H)
	for _, r := range regions {
		for i, in := range g.RasterizeRegion(r) {
			land[i] = land[i] || in
		}
	}
	return land
}

// TestLandMaskCacheMatchesDirect checks the cached master-lattice mask
// against direct per-grid rasterization: interior land and open ocean must
// agree everywhere; disagreement is tolerated only on the thin coastline
// band where master-cell quantization can differ by one cell.
func TestLandMaskCacheMatchesDirect(t *testing.T) {
	pr := geo.NewProjection(geo.Pt(41.0, -87.0))
	regions := LandRegions(pr)
	c := NewLandMaskCache()
	const cellKm = 16.0
	const excluded = -math.MaxFloat64

	g := geo.NewGrid(geo.V2(-2500, -1800), geo.V2(2500, 1800), cellKm)
	if !c.Apply(g, regions, excluded) {
		t.Fatal("Apply returned false for a cacheable region set")
	}

	direct := geo.NewGrid(geo.V2(-2500, -1800), geo.V2(2500, 1800), cellKm)
	land := landCells(direct, regions)

	disagree := 0
	for i := range land {
		cachedLand := g.Weight[i] != excluded
		if cachedLand != land[i] {
			disagree++
		}
	}
	if frac := float64(disagree) / float64(len(land)); frac > 0.02 {
		t.Errorf("cached mask disagrees with direct rasterization on %.1f%% of cells", frac*100)
	}
	// Deep interior (the projection centre is in the US midwest) must be
	// land; the mid-Atlantic must be masked.
	cellAt := func(p geo.Vec2) (int, int) {
		return int(math.Floor((p.X - g.Min.X) / g.CellKm)), int(math.Floor((p.Y - g.Min.Y) / g.CellKm))
	}
	cx, cy := cellAt(geo.V2(0, 0))
	if g.Weight[cy*g.W+cx] == excluded {
		t.Error("projection centre (US interior) masked as ocean")
	}
	ax, ay := cellAt(pr.Forward(geo.Pt(40.0, -40.0)))
	if ax >= 0 && ax < g.W && ay >= 0 && ay < g.H && g.Weight[ay*g.W+ax] != excluded {
		t.Error("mid-Atlantic cell not masked")
	}
}

// TestLandMaskCacheReuse verifies that repeated applies at one cell size
// hit the cached master, and that distinct cell sizes build distinct
// masters.
func TestLandMaskCacheReuse(t *testing.T) {
	pr := geo.NewProjection(geo.Pt(41.0, -87.0))
	regions := LandRegions(pr)
	c := NewLandMaskCache()
	const excluded = -math.MaxFloat64

	for i := 0; i < 3; i++ {
		// Different extents and origins each round — only cellKm matters.
		off := float64(i) * 37.5
		g := geo.NewGrid(geo.V2(-900+off, -700), geo.V2(900+off, 700), 8)
		c.Apply(g, regions, excluded)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 2 || s.Entries != 1 {
		t.Errorf("after 3 applies at one cell size: %+v, want 1 miss / 2 hits / 1 entry", s)
	}
	g := geo.NewGrid(geo.V2(-900, -700), geo.V2(900, 700), 16)
	c.Apply(g, regions, excluded)
	if s := c.Stats(); s.Entries != 2 || s.Misses != 2 {
		t.Errorf("second cell size should build a second master: %+v", s)
	}
	// A nil cache is inert.
	var nilCache *LandMaskCache
	g2 := geo.NewGrid(geo.V2(-10, -10), geo.V2(10, 10), 4)
	if nilCache.Apply(g2, regions, excluded) {
		t.Error("nil cache must report not-applied")
	}
}

// maskSquare builds a single-ring square region centred at (cx, cy) —
// cheap enough to rasterize at many cell sizes, and centring it
// differently yields a distinct maskKey (the key fingerprints the
// bounding box), standing in for a different survey's projected
// landmass.
func maskSquare(cx, cy, half float64) *geo.Region {
	return geo.RegionFromRing(geo.Ring{
		geo.V2(cx-half, cy-half), geo.V2(cx+half, cy-half),
		geo.V2(cx+half, cy+half), geo.V2(cx-half, cy+half),
	})
}

// TestLandMaskCacheEvictionLRU fills the cache past its master capacity
// with distinct cell sizes and checks that it sheds the least-recently
// used master, not a recently touched one, and never exceeds capacity.
func TestLandMaskCacheEvictionLRU(t *testing.T) {
	regions := []*geo.Region{maskSquare(0, 0, 400)}
	c := NewLandMaskCache()
	const excluded = -math.MaxFloat64

	apply := func(cellKm float64) {
		g := geo.NewGrid(geo.V2(-500, -500), geo.V2(500, 500), cellKm)
		if !c.Apply(g, regions, excluded) {
			t.Fatalf("Apply failed at cell size %v", cellKm)
		}
	}

	// One master per cell size, exactly at capacity.
	for i := 0; i < defaultMaskCap; i++ {
		apply(float64(4 + i))
	}
	if s := c.Stats(); s.Entries != defaultMaskCap || s.Misses != defaultMaskCap {
		t.Fatalf("filling to capacity: %+v, want %d entries / %d misses", s, defaultMaskCap, defaultMaskCap)
	}

	// Touch the oldest master so the SECOND-oldest becomes LRU, then
	// overflow with a new size.
	apply(4)
	apply(float64(4 + defaultMaskCap))
	s := c.Stats()
	if s.Entries != defaultMaskCap {
		t.Errorf("after overflow: %d entries, want capacity %d", s.Entries, defaultMaskCap)
	}

	// The refreshed size must still be resident (hit); the un-touched
	// second size must have been evicted (miss that rebuilds).
	hitsBefore, missesBefore := s.Hits, s.Misses
	apply(4)
	if s := c.Stats(); s.Hits != hitsBefore+1 {
		t.Errorf("recently-used master was evicted: %+v", s)
	}
	apply(5)
	if s := c.Stats(); s.Misses != missesBefore+1 {
		t.Errorf("LRU master (cell 5) should have been evicted and rebuilt: %+v", s)
	}

	// Unbuildable masters (bounding box over maxMasterCells at this
	// resolution) must not occupy capacity or count as hits.
	entriesBefore := c.Stats().Entries
	huge := []*geo.Region{maskSquare(0, 0, 1e6)}
	g := geo.NewGrid(geo.V2(-500, -500), geo.V2(500, 500), 0.25)
	if c.Apply(g, huge, excluded) {
		t.Error("Apply should refuse a master larger than maxMasterCells")
	}
	if s := c.Stats(); s.Entries != entriesBefore {
		t.Errorf("unbuildable master left a cache entry: %+v", s)
	}
}

// TestLandMaskCacheMixedSizesConcurrentSurveys hammers one cache from
// concurrent goroutines mixing two region sets (standing in for two
// surveys with different projections) and a coarse/fine spread of cell
// sizes. Every (set, size) master must be built exactly once — the
// per-entry once must absorb concurrent first users — and the resulting
// masks must match a direct rasterization. Run under -race by CI.
func TestLandMaskCacheMixedSizesConcurrentSurveys(t *testing.T) {
	type sq struct{ cx, cy, half float64 }
	surveySquares := [][]sq{
		{{-120, -80, 350}},
		{{200, 150, 275}, {-400, 300, 90}},
	}
	var surveys [][]*geo.Region
	for _, sqs := range surveySquares {
		var rs []*geo.Region
		for _, s := range sqs {
			rs = append(rs, maskSquare(s.cx, s.cy, s.half))
		}
		surveys = append(surveys, rs)
	}
	// Distance from p to the nearest square boundary — the only band where
	// the cached mask may legitimately disagree with direct rasterization
	// (master-lattice quantization plus grid-centre sampling).
	boundaryDist := func(sqs []sq, p geo.Vec2) float64 {
		best := math.MaxFloat64
		for _, s := range sqs {
			dx := math.Abs(p.X-s.cx) - s.half
			dy := math.Abs(p.Y-s.cy) - s.half
			var d float64
			if dx > 0 || dy > 0 {
				d = math.Hypot(math.Max(dx, 0), math.Max(dy, 0))
			} else {
				d = -math.Max(dx, dy)
			}
			best = math.Min(best, d)
		}
		return best
	}

	cells := []float64{4, 8, 32, 64} // fine pass through coarse passes
	c := NewLandMaskCache()
	const excluded = -math.MaxFloat64

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	const workers, iters = 8, 24
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Cycle every (survey, cell size) combination in every
				// goroutine so all masters see concurrent first use.
				combo := w*iters + i
				si := combo % len(surveys)
				cell := cells[(combo/len(surveys))%len(cells)]
				off := float64(combo%3) * 13.5 // origins differ; only cellKm keys
				g := geo.NewGrid(geo.V2(-600+off, -500), geo.V2(600+off, 500), cell)
				if !c.Apply(g, surveys[si], excluded) {
					errs <- "Apply returned false"
					continue
				}
				land := landCells(g, surveys[si])
				for y := 0; y < g.H; y++ {
					for x := 0; x < g.W; x++ {
						j := y*g.W + x
						if (g.Weight[j] != excluded) == land[j] {
							continue
						}
						centre := geo.V2(g.Min.X+(float64(x)+0.5)*cell, g.Min.Y+(float64(y)+0.5)*cell)
						if boundaryDist(surveySquares[si], centre) > 1.6*cell {
							errs <- "cached mask diverges from direct rasterization away from region boundaries"
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	want := uint64(len(surveys) * len(cells))
	s := c.Stats()
	if s.Misses != want || s.Entries != int(want) {
		t.Errorf("mixed concurrent load: %+v, want exactly %d masters built once each", s, want)
	}
	if s.Hits != workers*iters-want {
		t.Errorf("hits %d, want every apply after the first per (survey, size) to hit (%d)", s.Hits, workers*iters-want)
	}
}

// TestQuantizeCellKm pins the coarse-cell lattice the land-mask cache
// relies on: outputs are fine·2^k, never below fine, nearest in log space.
func TestQuantizeCellKm(t *testing.T) {
	cases := []struct{ raw, fine, want float64 }{
		{2.5, 4, 4},   // below fine clamps up
		{4, 4, 4},     // exact
		{5, 4, 4},     // nearest is 2^0
		{6.1, 4, 8},   // nearest is 2^1
		{13, 4, 16},   // 13/4=3.25 → 2^2
		{11, 4, 8},    // 11/4=2.75 → 2^1.46… rounds to 2^1? log2(2.75)=1.46 → 1 → 8
		{100, 4, 128}, // log2(25)=4.64 → 2^5
	}
	for _, tc := range cases {
		if got := quantizeCellKm(tc.raw, tc.fine); got != tc.want {
			t.Errorf("quantizeCellKm(%v, %v) = %v, want %v", tc.raw, tc.fine, got, tc.want)
		}
	}
}

// TestSolveSharesLandMasks runs two full solves with a shared cache and
// confirms the second re-uses the first's masters.
func TestSolveSharesLandMasks(t *testing.T) {
	pr := geo.NewProjection(geo.Pt(41.8, -74.0))
	cons := []Constraint{
		PositiveDisk(pr, geo.Pt(42.44, -76.50), 300, 1.0, "a"),
		PositiveDisk(pr, geo.Pt(40.71, -74.01), 280, 0.9, "b"),
	}
	cache := NewLandMaskCache()
	opts := SolverOpts{MinAreaKm2: 1500, LandRegions: LandRegions(pr), Masks: cache}
	if _, err := Solve(cons, opts); err != nil {
		t.Fatal(err)
	}
	after1 := cache.Stats()
	if after1.Misses == 0 {
		t.Fatal("first solve should build at least one master")
	}
	if _, err := Solve(cons, opts); err != nil {
		t.Fatal(err)
	}
	after2 := cache.Stats()
	if after2.Misses != after1.Misses {
		t.Errorf("second solve rebuilt masters: %d misses, want %d", after2.Misses, after1.Misses)
	}
	if after2.Hits <= after1.Hits {
		t.Errorf("second solve should hit the cache: hits %d → %d", after1.Hits, after2.Hits)
	}
}

// TestLandKeyMemoTracksRegionSet: the memoized fingerprint is the
// fingerprint of the set it is asked about — also right after a different
// set, and after a slice it has seen had an element replaced in place.
func TestLandKeyMemoTracksRegionSet(t *testing.T) {
	c := NewLandMaskCache()
	a := []*geo.Region{maskSquare(0, 0, 10), maskSquare(50, 0, 5)}
	b := []*geo.Region{maskSquare(100, 100, 20)}
	check := func(name string, regions []*geo.Region, cellKm float64) {
		t.Helper()
		want, wantOK := keyFor(regions)
		want.cellKm = cellKm
		if got, ok := c.keyFor(regions, cellKm); got != want || ok != wantOK {
			t.Errorf("%s: memoized key %+v/%v, direct %+v/%v", name, got, ok, want, wantOK)
		}
	}
	check("first", a, 4)
	check("same set, other cell size", a, 64)
	check("other set", b, 4)
	check("back", a, 4)
	a[1] = b[0]
	check("element replaced in place", a, 4)
	check("empty set", nil, 4)
}
