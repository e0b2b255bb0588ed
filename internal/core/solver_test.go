package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"octant/internal/geo"
	"octant/internal/netsim"
	"octant/internal/probe"
)

func disk(x, y, r float64) *geo.Region { return geo.Disk(geo.V2(x, y), r, 96) }

func TestSolveSingleConstraint(t *testing.T) {
	cons := []Constraint{{Kind: Positive, Region: disk(0, 0, 100), Weight: 1, Source: "a"}}
	sol, err := Solve(cons, SolverOpts{MinAreaKm2: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pi * 100 * 100
	if got := sol.Region.Area(); math.Abs(got-want) > want*0.05 {
		t.Errorf("area %v, want %v", got, want)
	}
	if sol.Point.Len() > 10 {
		t.Errorf("point %v should be near origin", sol.Point)
	}
	if sol.Weight != 1 {
		t.Errorf("weight %v", sol.Weight)
	}
}

func TestSolveIntersection(t *testing.T) {
	cons := []Constraint{
		{Kind: Positive, Region: disk(0, 0, 100), Weight: 1, Source: "a"},
		{Kind: Positive, Region: disk(150, 0, 100), Weight: 1, Source: "b"},
	}
	sol, err := Solve(cons, SolverOpts{MinAreaKm2: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Best cells are the lens around (75, 0).
	if math.Abs(sol.Point.X-75) > 10 || math.Abs(sol.Point.Y) > 10 {
		t.Errorf("point %v, want ≈ (75, 0)", sol.Point)
	}
	if sol.Weight != 2 {
		t.Errorf("weight %v, want 2", sol.Weight)
	}
	// Region contains lens points, not disk-a-only points... the region
	// may be grown past the lens by the size threshold, but the lens
	// itself must be in it.
	if !sol.Region.Contains(geo.V2(75, 0)) {
		t.Error("lens centre missing from region")
	}
}

func TestSolveNegativeConstraint(t *testing.T) {
	cons := []Constraint{
		{Kind: Positive, Region: disk(0, 0, 100), Weight: 1, Source: "a"},
		{Kind: Negative, Region: disk(0, 0, 30), Weight: 1, Source: "a/neg"},
	}
	sol, err := Solve(cons, SolverOpts{MinAreaKm2: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Region.Contains(geo.V2(0, 0)) {
		t.Error("negative constraint centre should be excluded")
	}
	if !sol.Region.Contains(geo.V2(60, 0)) {
		t.Error("annulus should be included")
	}
}

func TestSolveWeightedConflict(t *testing.T) {
	// Two disjoint high-weight clusters; one heavier. The solver must
	// pick the heavier, not fail (the §2.4 robustness argument).
	cons := []Constraint{
		{Kind: Positive, Region: disk(0, 0, 50), Weight: 1, Source: "a"},
		{Kind: Positive, Region: disk(0, 0, 50), Weight: 1, Source: "b"},
		{Kind: Positive, Region: disk(0, 0, 50), Weight: 1, Source: "c"},
		{Kind: Positive, Region: disk(500, 0, 50), Weight: 1, Source: "liar1"},
		{Kind: Positive, Region: disk(500, 0, 50), Weight: 0.5, Source: "liar2"},
	}
	sol, err := Solve(cons, SolverOpts{MinAreaKm2: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Point.Dist(geo.V2(0, 0)) > 20 {
		t.Errorf("point %v should be at the 3-vote cluster", sol.Point)
	}
	if sol.Weight != 3 {
		t.Errorf("weight %v, want 3", sol.Weight)
	}
}

func TestSolveSizeThresholdGrowsRegion(t *testing.T) {
	cons := []Constraint{
		{Kind: Positive, Region: disk(0, 0, 200), Weight: 1, Source: "a"},
		{Kind: Positive, Region: disk(0, 0, 20), Weight: 1, Source: "b"},
	}
	small, _ := Solve(cons, SolverOpts{MinAreaKm2: 100})
	big, _ := Solve(cons, SolverOpts{MinAreaKm2: 50000})
	if big.Region.Area() <= small.Region.Area() {
		t.Errorf("size threshold should grow region: %v vs %v", big.Region.Area(), small.Region.Area())
	}
	// Point estimate must not degrade with a bigger region (it comes
	// from top-weight cells in both cases).
	if small.Point.Len() > 10 || big.Point.Len() > 10 {
		t.Errorf("points drifted: %v %v", small.Point, big.Point)
	}
}

func TestSolveLandMask(t *testing.T) {
	land := geo.Rect(geo.V2(-30, -30), geo.V2(30, 30))
	cons := []Constraint{
		{Kind: Positive, Region: disk(50, 0, 60), Weight: 1, Source: "a"},
	}
	sol, err := Solve(cons, SolverOpts{MinAreaKm2: 10, LandRegions: []*geo.Region{land}})
	if err != nil {
		t.Fatal(err)
	}
	// Only the overlap of the disk with land survives.
	if sol.Region.Contains(geo.V2(50, 0)) {
		t.Error("off-land cells should be masked")
	}
	if !sol.Region.Contains(geo.V2(20, 0)) {
		t.Error("on-land disk cells should remain")
	}
}

func TestSolveNoPositive(t *testing.T) {
	if _, err := Solve(nil, SolverOpts{}); err == nil {
		t.Error("no constraints should error")
	}
	cons := []Constraint{{Kind: Negative, Region: disk(0, 0, 10), Weight: 1}}
	if _, err := Solve(cons, SolverOpts{}); err == nil {
		t.Error("negative-only should error")
	}
}

// randomDiskConstraints draws 2–12 disk constraints inside a 500 km box:
// the first is positive, the rest positive with probability 2/3, weights
// on a quarter grid so sums are exact in float64.
func randomDiskConstraints(rng *rand.Rand) []Constraint {
	n := 2 + rng.Intn(11)
	cons := make([]Constraint, n)
	for i := range cons {
		x, y := 500*rng.Float64(), 500*rng.Float64()
		w := 0.25 * float64(1+rng.Intn(4))
		if i == 0 || rng.Intn(3) > 0 {
			cons[i] = Constraint{Kind: Positive, Region: disk(x, y, 150+250*rng.Float64()), Weight: w}
		} else {
			cons[i] = Constraint{Kind: Negative, Region: disk(x, y, 40+140*rng.Float64()), Weight: w}
		}
	}
	return cons
}

// TestSolveExactMatchesRaster is the differential between the raster
// solver and the arrangement oracle (solveExact) on seeded generated
// constraint sets. With the size threshold at its floor both return the
// set of maximum-weight points, so they must agree on the top weight, on
// the point estimate to within a cell, and on the region up to what
// rasterization can move: a band one cell wide along the boundary.
func TestSolveExactMatchesRaster(t *testing.T) {
	rng := rand.New(rand.NewSource(20261001))
	const minArea = 1e-6 // the top level alone: any one cell clears it
	const cases = 16     // the oracle's boolean operations cost ≈ 0.3 s a case
	compared := 0
	for c := 0; c < cases; c++ {
		cons := randomDiskConstraints(rng)
		exact, err := solveExact(cons, SolverOpts{MinAreaKm2: minArea})
		if err != nil {
			t.Fatalf("case %d: exact: %v", c, err)
		}
		raster, err := Solve(cons, SolverOpts{MinAreaKm2: minArea})
		if err != nil {
			t.Fatalf("case %d: raster: %v", c, err)
		}
		var perimeter float64
		for _, ring := range exact.Region.Rings {
			for i := range ring {
				perimeter += ring[i].Dist(ring[(i+1)%len(ring)])
			}
		}
		// The oracle rasterizes too (oracleCellKm); the band is as wide
		// as the coarser of the two lattices.
		cell := math.Max(raster.CellKm, oracleCellKm)
		band := perimeter * cell
		area := exact.Region.Area()
		if area < band {
			// A top region thinner than a cell: the lattice may step over
			// it, and then the engines answer for different levels.
			continue
		}
		compared++
		if math.Abs(raster.Weight-exact.Weight) > 1e-9 {
			t.Errorf("case %d: top weight %v raster vs %v exact", c, raster.Weight, exact.Weight)
			continue
		}
		if d := raster.Point.Dist(exact.Point); d > cell {
			t.Errorf("case %d: points %.2f km apart (cell %.2f km): %v raster vs %v exact", c, d, cell, raster.Point, exact.Point)
		}
		common := geo.Intersect(raster.Region, exact.Region, &geo.BoolOpts{CellKm: 1}).Area()
		if diff := raster.Region.Area() + area - 2*common; diff > band {
			t.Errorf("case %d: regions differ by %.0f km², bound is perimeter %.0f km × cell %.2f km = %.0f km² (areas %.0f raster, %.0f exact)",
				c, diff, perimeter, cell, band, raster.Region.Area(), area)
		}
	}
	if compared < cases*2/3 {
		t.Errorf("only %d of %d generated cases had a top region wide enough to compare", compared, cases)
	}
}

func TestConstraintBuilders(t *testing.T) {
	pr := geo.NewProjection(geo.Pt(40, -90))
	c := PositiveDisk(pr, geo.Pt(40, -90), 100, 0.7, "lm")
	if c.Kind != Positive || c.Weight != 0.7 {
		t.Errorf("PositiveDisk = %+v", c)
	}
	want := math.Pi * 100 * 100
	if got := c.Region.Area(); math.Abs(got-want) > want*0.02 {
		t.Errorf("disk area %v", got)
	}
	n := NegativeDisk(pr, geo.Pt(40, -90), 50, 0.7, "lm")
	if n.Kind != Negative {
		t.Error("NegativeDisk kind")
	}
}

func TestSecondaryLandmarkConstraints(t *testing.T) {
	beta := disk(0, 0, 50) // secondary landmark region
	pos := PositiveFromRegion(beta, 100, 1, "sec")
	// Dilation: all points within 100 of any point in beta → disk radius 150.
	want := math.Pi * 150 * 150
	if got := pos.Region.Area(); math.Abs(got-want) > want*0.08 {
		t.Errorf("dilated area %v, want ≈ %v", got, want)
	}
	// Intersection of r-disks at all hull points of a ρ-disk at c: the points
	// within r of EVERY point of beta → the disk of radius r − ρ around c,
	// traced on the cell NegativeFromRegion solves at; nothing when r < ρ.
	for _, tc := range []struct{ rho, r float64 }{{50, 100}, {50, 60}, {90, 400}, {140, 1500}, {10, 30}} {
		c := geo.V2(3*tc.rho, -tc.r/7)
		beta := disk(c.X, c.Y, tc.rho)
		cell := math.Min(math.Max(tc.r/100, 0.2), 4)
		neg := NegativeFromRegion(beta, tc.r, 1, "sec").Region
		in := tc.r - tc.rho
		if got, want := neg.Area(), math.Pi*in*in; math.Abs(got-want) > 2*math.Pi*in*cell {
			t.Errorf("ρ=%v r=%v: area %.1f, want %.1f ± %.1f", tc.rho, tc.r, got, want, 2*math.Pi*in*cell)
		}
		if d := neg.Centroid().Dist(c); d > cell {
			t.Errorf("ρ=%v r=%v: centroid %.2f km from beta's centre, cell %.2f km", tc.rho, tc.r, d, cell)
		}
		if len(neg.Rings) != 1 {
			t.Errorf("ρ=%v r=%v: %d rings, want 1", tc.rho, tc.r, len(neg.Rings))
		}
		if empty := NegativeFromRegion(beta, 0.4*tc.rho, 1, "sec").Region; !empty.IsEmpty() {
			t.Errorf("ρ=%v: r < ρ should give empty exclusion, got %v", tc.rho, empty.Area())
		}
	}
	if got := PositiveFromRegion(geo.EmptyRegion(), 100, 1, "x"); !got.Region.IsEmpty() {
		t.Error("empty beta should stay empty")
	}
}

func TestLatencyWeight(t *testing.T) {
	if w := LatencyWeight(0, 30); w != 1 {
		t.Errorf("weight at 0 = %v", w)
	}
	if w := LatencyWeight(30, 30); math.Abs(w-0.5) > 1e-12 {
		t.Errorf("weight at half-life = %v", w)
	}
	if w := LatencyWeight(60, 30); math.Abs(w-0.25) > 1e-12 {
		t.Errorf("weight at 2×half-life = %v", w)
	}
	if w := LatencyWeight(10, 0); w != 1 {
		t.Errorf("zero half-life should disable weighting, got %v", w)
	}
	if w := LatencyWeight(-5, 30); w != 1 {
		t.Errorf("negative rtt clamps, got %v", w)
	}
	// Monotone decreasing.
	prev := 2.0
	for rtt := 0.0; rtt < 300; rtt += 10 {
		w := LatencyWeight(rtt, 30)
		if w > prev {
			t.Fatalf("weight not decreasing at %v", rtt)
		}
		prev = w
	}
}

// projectedOnLand is the solver's land mask — LandRegions, projected as a
// localization projects it — as a test on geographic points.
func projectedOnLand() func(geo.Point) bool {
	pr := geo.NewProjection(geo.Pt(40, -60)) // between the two outlines
	land := LandRegions(pr)
	return func(p geo.Point) bool {
		v := pr.Forward(p)
		for _, r := range land {
			if r.Contains(v) {
				return true
			}
		}
		return false
	}
}

// TestOnLand checks the solver's land mask on cities and open ocean.
func TestOnLand(t *testing.T) {
	onLand := projectedOnLand()
	for _, p := range []geo.Point{
		geo.Pt(42.44, -76.50),  // Ithaca
		geo.Pt(39.74, -104.99), // Denver
		geo.Pt(48.85, 2.35),    // Paris
		geo.Pt(51.51, -0.13),   // London
	} {
		if !onLand(p) {
			t.Errorf("%v should be on land", p)
		}
	}
	for _, p := range []geo.Point{
		geo.Pt(40, -40), // mid-Atlantic
		geo.Pt(30, -60), // Sargasso Sea
		geo.Pt(0, 0),    // Gulf of Guinea
	} {
		if onLand(p) {
			t.Errorf("%v should be ocean", p)
		}
	}
}

// TestOnLandAntipode guards the winding-sum degeneracy: the antipode of a
// continental interior point must stay ocean under the solver's land mask.
func TestOnLandAntipode(t *testing.T) {
	onLand := projectedOnLand()
	denver := geo.Pt(39.74, -104.99)
	if !onLand(denver) {
		t.Fatal("Denver should be on land")
	}
	antipode := geo.Pt(-39.74, 75.01) // southern Indian Ocean
	if onLand(antipode) {
		t.Error("Denver's antipode should be ocean")
	}
}

// TestSolveAllocsIndependentOfGC: a solve's allocations are the code's, not
// the collector's. BenchmarkLocalize's target — the seed-1 world's first
// host, localized from the other 50 — is solved on its Localizer's
// LandMaskCache, plainly and with two collections before each counted solve
// (two, so that nothing survives in a sync.Pool's victim cache either),
// whose own allocations, counted alone, are taken off: the counts must be
// equal.
func TestSolveAllocsIndependentOfGC(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 1})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	lms := make([]Landmark, 0, len(hosts)-1)
	for _, h := range hosts[1:] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	loc := NewLocalizer(p, s, Config{})
	res, err := loc.LocalizeContext(context.Background(), hosts[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	opts := SolverOpts{MinAreaKm2: minRegionAreaKm2, LandRegions: loc.projContext().Land, Masks: loc.LandMasks()}
	solve := func() {
		if _, err := Solve(res.Constraints, opts); err != nil {
			t.Fatal(err)
		}
	}
	collect := func() {
		runtime.GC()
		runtime.GC()
	}
	plain := testing.AllocsPerRun(20, solve)
	collected := testing.AllocsPerRun(20, func() {
		collect()
		solve()
	}) - testing.AllocsPerRun(20, collect)
	t.Logf("allocs per solve: %v plain, %v after two collections", plain, collected)
	if plain != collected {
		t.Errorf("a solve allocates %v times, %v after two collections: the count depends on the collector", plain, collected)
	}
}
