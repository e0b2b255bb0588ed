package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"octant/internal/geo"
)

// Synthetic grids for the fused kernel's traps. Constraints are
// axis-aligned rectangles over a unit-cell grid anchored at the origin, so
// a test places exact raw weights in chosen cells: a cell covered by one
// rectangle holds that rectangle's weight exactly, and overlapping
// rectangles make prefix-sum dust (0.1+0.2 next to a plain 0.3).

// cellRect is a constraint covering cells [x0, x1] × [y0, y1] of a unit
// grid at the origin; a negative w makes it a negative constraint.
func cellRect(x0, y0, x1, y1 int, w float64) Constraint {
	r := geo.Rect(geo.V2(float64(x0)+0.25, float64(y0)+0.25), geo.V2(float64(x1)+0.75, float64(y1)+0.75))
	if w < 0 {
		return Constraint{Kind: Negative, Region: r, Weight: -w, Source: "neg"}
	}
	return Constraint{Kind: Positive, Region: r, Weight: w, Source: "pos"}
}

// unitPass checks one pass over a w×h unit grid against the oracle.
func unitPass(t testing.TB, name string, cs []Constraint, w, h int, opts SolverOpts) geo.TopLevel {
	t.Helper()
	return checkPass(t, name, cs, geo.V2(0, 0), geo.V2(float64(w), float64(h)), 1, opts)
}

func TestFusedTraps(t *testing.T) {
	// Raw values less than 1e-9 apart on both sides of the 0.9 level: the
	// low one names the level without clearing it.
	const below, above = 0.8999999997, 0.9000000002
	straddle := []Constraint{
		cellRect(2, 2, 5, 3, below), // 8 cells
		cellRect(8, 2, 9, 3, above), // 4 cells
		cellRect(0, 6, 11, 7, 0.5),  // 24 cells
		cellRect(4, 9, 4, 9, 0.9),   // 1 cell, exactly on the level
	}
	for _, area := range []float64{1, 5, 6, 13, 14, 37, 38, 1000} {
		top := unitPass(t, fmt.Sprintf("straddle/area-%v", area), straddle, 12, 12, SolverOpts{MinAreaKm2: area})
		if top.Underflow {
			t.Errorf("straddle/area-%v: four distinct values underflowed the table", area)
		}
	}

	// Prefix-sum dust: 0.1+0.2 beside a plain 0.3, and the 0.1 that is
	// left after the 0.2 ends beside a plain 0.1.
	dust := []Constraint{
		cellRect(0, 0, 9, 0, 0.1), cellRect(3, 0, 6, 0, 0.2),
		cellRect(0, 2, 2, 2, 0.3), cellRect(5, 2, 9, 2, 0.1),
	}
	for _, area := range []float64{1, 4, 5, 7, 8, 20} {
		unitPass(t, fmt.Sprintf("dust/area-%v", area), dust, 10, 4, SolverOpts{MinAreaKm2: area})
	}

	// The top value rounds up to its level (0.8999999997 names 0.9): its
	// cells belong to that level, alone or with a lower level under it, and
	// the point averages them.
	roundsUp := []Constraint{cellRect(2, 2, 4, 4, below), cellRect(6, 6, 8, 7, 0.5)}
	for _, tc := range []struct {
		name        string
		cs          []Constraint
		area, level float64
		cells       int
	}{
		{"rounds-up/with-lower-level", roundsUp, 3, 0.9, 9},
		{"rounds-up/past-it", roundsUp, 10, 0.5, 15},
		{"rounds-up/alone", roundsUp[:1], 1, 0.9, 9},
	} {
		top := unitPass(t, tc.name, tc.cs, 10, 10, SolverOpts{MinAreaKm2: tc.area})
		if top.Best != 0.9 || top.Level != tc.level || top.Cells != tc.cells {
			t.Errorf("%s: walk chose %+v, want best 0.9 and the %v level's %d cells", tc.name, top, tc.level, tc.cells)
		}
	}

	// No positive cell: the negative outweighs the positive everywhere.
	top := unitPass(t, "no-positive-cell", []Constraint{cellRect(0, 0, 5, 5, 1), cellRect(0, 0, 5, 5, -2)}, 6, 6, SolverOpts{MinAreaKm2: 1})
	if top.Best > 0 {
		t.Errorf("no positive cell: best %v", top.Best)
	}

	// One-cell answer, and an answer on the grid's edge (both corners).
	unitPass(t, "one-cell", []Constraint{cellRect(0, 0, 7, 7, 0.2), cellRect(3, 4, 3, 4, 0.7)}, 8, 8, SolverOpts{MinAreaKm2: 1})
	edge := []Constraint{cellRect(0, 0, 7, 7, 0.2), cellRect(0, 0, 1, 0, 0.7), cellRect(6, 7, 7, 7, 0.7)}
	top = unitPass(t, "grid-edge", edge, 8, 8, SolverOpts{MinAreaKm2: 4})
	if top.Box != (geo.CellBox{X0: 0, Y0: 0, X1: 7, Y1: 7}) {
		t.Errorf("grid-edge: box %+v", top.Box)
	}
}

// pruningTrap is one 12×24 unit grid that takes a particular branch of
// geo.Grid.ResolveTop's row pruning.
type pruningTrap struct {
	name      string
	cs        []Constraint
	area      float64
	wantLevel float64
	wantRows  int
}

func pruningTraps() []pruningTrap {
	// Rows 8–9 are the scout's band in most cases: a 1.0 peak on two cells
	// over a 0.3 layer of 24, so that a threshold of 20 cells is reached
	// there at L1 = 0.3.
	peak, layer, faint := cellRect(5, 8, 6, 8, 1), cellRect(0, 8, 11, 9, 0.3), cellRect(0, 21, 11, 22, 0.1)
	blobs := Constraint{Kind: Positive, Weight: 0.4, Source: "pos", Region: &geo.Region{Rings: []geo.Ring{
		cellRect(1, 2, 3, 4, 1).Region.Rings[0], cellRect(7, 12, 10, 14, 1).Region.Rings[0],
	}}}
	var flat []Constraint
	for y := 0; y < 24; y += 4 {
		flat = append(flat, cellRect(y%5, y, 6+y%5, y+3, 0.5))
	}
	return []pruningTrap{
		// A heavy negative sinks the whole scout band: the scout finds
		// nothing positive and every remaining row is resolved.
		{"negative-over-scout", []Constraint{peak, layer, cellRect(0, 8, 11, 9, -2), cellRect(2, 1, 9, 5, 0.2), cellRect(4, 15, 5, 16, 0.25)}, 20, 0.2, 24},
		// Two more clusters, lighter and larger, one on each side of the
		// band: the scout reaches the area at 0.3, the second sweep's rows
		// 1–4, 10 and 14–20 lift the level to 0.8, and the faint rows are
		// never resolved.
		{"second-sweep-lifts-level", []Constraint{peak, layer, cellRect(1, 14, 5, 19, 0.8), cellRect(1, 1, 4, 3, 0.8), faint}, 20, 0.8, 14},
		// The layer is a disk: rows 8–9 scout it, the second sweep goes back
		// below them for the rest of it, its chain cursors rewound.
		{"disk-across-both-sweeps", []Constraint{peak, {Kind: Positive, Region: geo.Disk(geo.V2(6, 9), 5.7, 48), Weight: 0.3, Source: "pos"}, faint}, 20, 0.3, 13},
		// Equal weights tiling the rows: the bound is flat, the scout is
		// every row.
		{"flat-bound", flat, 20, 0.5, 24},
		// A threshold no walk can reach: every row, lowest positive level.
		{"area-beyond-grid", []Constraint{peak, layer, faint}, 1e9, 0.1, 24},
		// An edge-table fill between two-cursor ones: its table must be
		// stepped through every row, so the pass does not prune.
		{"general-fill", []Constraint{peak, blobs, layer, faint}, 20, 0.4, 24},
		// Raw values within 1e-9 of L1 on rows the bound only just admits:
		// 0.3 − 4e-10 names the level without clearing it, 0.3 + 3e-10
		// clears it, 0.3 − 1.6e-9 is inside ε; 0.3 − 2.5e-9 is outside and
		// its rows are skipped: 8–10, 2–3, 4–5 and 12–13 remain.
		{"dust-at-the-bound", []Constraint{peak, layer, cellRect(0, 2, 3, 2, 0.3-4e-10), cellRect(0, 4, 3, 4, 0.3-1.6e-9), cellRect(0, 12, 3, 12, 0.3+3e-10), cellRect(0, 14, 3, 14, 0.3-2.5e-9)}, 20, 0.3, 9},
	}
}

// TestFusedPruningTraps sets the traps of geo.Grid.ResolveTop's row pruning:
// each 12×24 grid goes through the oracle like the ones above, and the count
// of rows the pass resolved shows that it took the branch the case is about.
// (A fill's row range runs one row past its last row of cells.)
func TestFusedPruningTraps(t *testing.T) {
	for _, tc := range pruningTraps() {
		top := unitPass(t, tc.name, tc.cs, 12, 24, SolverOpts{MinAreaKm2: tc.area})
		if top.Level != tc.wantLevel || top.Rows != tc.wantRows || top.Underflow {
			t.Errorf("%s: level %v from %d rows (underflow %v), want %v from %d", tc.name, top.Level, top.Rows, top.Underflow, tc.wantLevel, tc.wantRows)
		}
	}
}

// poisonedGrid is s's next grid, with every weight s holds set to what a
// previous pass might leave at its worst: NaN and a huge positive value,
// alternating.
func poisonedGrid(s *geo.Scratch, min, max geo.Vec2, cellKm float64) *geo.Grid {
	g := s.Grid(min, max, cellKm)
	for i, w := 0, g.Weight[:cap(g.Weight)]; i < len(w); i++ {
		w[i] = [2]float64{math.NaN(), 1e300}[i%2]
	}
	return g
}

// poisonFree poisons the scratch pair the last solve on c handed back, which
// the next solve on c draws.
func poisonFree(c *LandMaskCache) {
	sc := c.takeScratch()
	poisonedGrid(&sc.coarse, geo.V2(0, 0), geo.V2(1, 1), 1)
	poisonedGrid(&sc.fine, geo.V2(0, 0), geo.V2(1, 1), 1)
	c.putScratch(sc)
}

// TestResolveTopReadsNoStaleCell: geo.Grid.ResolveTop is handed unzeroed
// grids, so whatever a pass goes on to read it must have stored. Whole solves
// of the benchmark world's 16 targets, on a scratch pair reused from solve to
// solve and poisoned in between, their coarse passes alone, the seven
// pruning traps and a pass forced through the census fallback with rows
// pruned run on poisoned grids of one reused Scratch and on zeroed ones:
// region, point, weight, level, box and counts must agree bit for bit.
func TestResolveTopReadsNoStaleCell(t *testing.T) {
	var s geo.Scratch
	samePass := func(name string, cs []Constraint, min, max geo.Vec2, cellKm float64, opts SolverOpts) (top geo.TopLevel, h int) {
		t.Helper()
		opts.fillDefaults()
		fills, _, _, _ := prepareFills(nil, cs)
		got := solveOnGrid(poisonedGrid(&s, min, max, cellKm), fills, cellKm, &opts)
		want := solveOnGrid(geo.NewGrid(min, max, cellKm), fills, cellKm, &opts)
		if got.top != want.top {
			t.Errorf("%s: walk on a poisoned grid %+v, on a zeroed one %+v", name, got.top, want.top)
		}
		sameSolution(t, name, got.solution(), want.solution())
		return got.top, got.g.H
	}

	loc, targets := fusedFixture(t, 1, 16, 16)
	opts := SolverOpts{MinAreaKm2: minRegionAreaKm2, LandRegions: loc.projContext().Land, Masks: NewLandMaskCache()}
	pruned := 0
	var last []*Solution // the last target's answer and its fresh-pair twin
	for _, target := range targets {
		res, err := loc.LocalizeContext(context.Background(), target)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		// One solve sizes the cache's pair for the target; the next draws
		// it poisoned.
		if _, err := Solve(res.Constraints, opts); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		poisonFree(opts.Masks)
		got, err := Solve(res.Constraints, opts)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		want, _ := solve(res.Constraints, opts, nil) // on a fresh pair
		sameSolution(t, target, got, want)
		// No Solution holds scratch memory: the last target's answer
		// survives this target's solves on the same pair.
		if last != nil {
			sameSolution(t, "the target before "+target, last[0], last[1])
		}
		last = []*Solution{got, want}
		if !reflect.DeepEqual(got.Region.Rings, res.Region.Rings) {
			t.Errorf("%s: solve on poisoned grids differs from Localize's region", target)
		}
		_, min, max, coarse := coarseGrid(res.Constraints, opts)
		if top, h := samePass(target+"/coarse", res.Constraints, min, max, coarse, opts); top.Rows*2 > h {
			t.Errorf("%s: coarse pass resolved %d of %d rows: the case should leave most of them stale", target, top.Rows, h)
		}
	}
	for _, tc := range pruningTraps() {
		if top, h := samePass(tc.name, tc.cs, geo.V2(0, 0), geo.V2(12, 24), 1, SolverOpts{MinAreaKm2: tc.area}); top.Rows < h {
			pruned++
		}
	}
	if pruned != 3 {
		t.Errorf("%d of the pruning traps left rows unresolved, want 3", pruned)
	}

	// The census fallback reads the whole field. Rows 2–5 scout a 100-high
	// tower (at the rows' end: no dust after it) over a 0.3 layer of 160
	// cells and reach a 150-cell threshold at 0.3; the second sweep then
	// brings in 200 cells of 200 distinct values above it, which the
	// 96-entry table cannot walk 150 cells down; the faint rows 20–23 stay
	// unresolved and must read 0 to the census.
	cs := []Constraint{cellRect(38, 2, 39, 4, 100), cellRect(0, 2, 39, 5, 0.3), cellRect(0, 20, 39, 22, 0.1)}
	for i := 0; i < 200; i++ {
		cs = append(cs, cellRect(i%40, 10+i/40, i%40, 10+i/40, 1+float64(i)*0.001))
	}
	top, h := samePass("census-fallback", cs, geo.V2(0, 0), geo.V2(40, 30), 1, SolverOpts{MinAreaKm2: 150})
	if !top.Underflow || top.Rows >= h || top.Cells != 150 {
		t.Errorf("census-fallback: %+v, want an underflow with rows pruned and 150 cells", top)
	}
}

// TestFusedLandMaskPaths: the hard mask through a shared cache, through
// direct rasterization (Masks == nil), and excluding the whole grid.
func TestFusedLandMaskPaths(t *testing.T) {
	cs := []Constraint{cellRect(0, 0, 15, 15, 0.3), cellRect(4, 4, 11, 11, 0.4), cellRect(6, 6, 7, 7, 0.2)}
	land := []*geo.Region{
		geo.Rect(geo.V2(2.6, 1.3), geo.V2(9.2, 9.9)),
		geo.Disk(geo.V2(11, 12), 3.3, 24),
	}
	offshore := []*geo.Region{geo.Rect(geo.V2(40, 40), geo.V2(50, 50))}
	for _, area := range []float64{1, 3, 20, 60, 500} {
		for _, masks := range []*LandMaskCache{nil, NewLandMaskCache()} {
			name := fmt.Sprintf("area-%v/cache-%v", area, masks != nil)
			unitPass(t, name, cs, 16, 16, SolverOpts{MinAreaKm2: area, LandRegions: land, Masks: masks})
			top := unitPass(t, name+"/all-excluded", cs, 16, 16, SolverOpts{MinAreaKm2: area, LandRegions: offshore, Masks: masks})
			if top.Best > 0 {
				t.Errorf("%s: all-excluded grid has best %v", name, top.Best)
			}
		}
	}
	// A grid that is not aligned with the master lattice.
	checkPass(t, "unaligned", cs, geo.V2(-0.37, 0.81), geo.V2(15.2, 14.9), 1,
		SolverOpts{MinAreaKm2: 10, LandRegions: land, Masks: NewLandMaskCache()})
}

// TestFusedUnderflowFallsBack: more distinct values above the answer than
// the table tracks. The kernel must notice, fall back to the full census,
// count it, and still agree with the oracle.
func TestFusedUnderflowFallsBack(t *testing.T) {
	var cs []Constraint
	for i := 0; i < 20*20; i++ {
		cs = append(cs, cellRect(i%20, i/20, i%20, i/20, 1+float64(i)*0.001))
	}
	masks := NewLandMaskCache()
	shallow := unitPass(t, "underflow/shallow", cs, 20, 20, SolverOpts{MinAreaKm2: 50, Masks: masks})
	if shallow.Underflow || shallow.Depth != 49 {
		t.Errorf("a 50-level walk fits the table: %+v", shallow)
	}
	deep := unitPass(t, "underflow/deep", cs, 20, 20, SolverOpts{MinAreaKm2: 300, Masks: masks})
	if !deep.Underflow || deep.Depth != 299 {
		t.Errorf("a 300-level walk must underflow: %+v", deep)
	}
	// Out of levels before the threshold, with values untracked.
	all := unitPass(t, "underflow/exhausted", cs, 20, 20, SolverOpts{MinAreaKm2: 1e6, Masks: masks})
	if !all.Underflow || all.Cells != 400 {
		t.Errorf("exhausted walk: %+v", all)
	}
	st := masks.SolverStats()
	if st.Passes != 3 || st.CensusUnderflows != 2 || st.MaxWalkDepth != 399 {
		t.Errorf("solver stats %+v, want 3 passes, 2 underflows, depth 399", st)
	}
}

// TestSolveTracesCoarseLazily drives whole solves through both ways the
// coarse answer ends up returned — the fine pass declined (coarse already
// at fine resolution) and the fine pass empty — and through the ordinary
// refined case, against the eager oracle.
func TestSolveTracesCoarseLazily(t *testing.T) {
	masks := NewLandMaskCache()
	small := []Constraint{
		{Kind: Positive, Region: disk(0, 0, 100), Weight: 1},
		{Kind: Positive, Region: disk(150, 0, 100), Weight: 1},
	}
	opts := SolverOpts{MinAreaKm2: 100, Masks: masks}
	got, err := Solve(small, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "fine-declined", got, referenceSolve(small, opts))
	if st := masks.SolverStats(); st.Passes != 1 || st.CoarseTraces != 1 {
		t.Errorf("fine pass declined: %+v, want 1 pass and 1 coarse trace", st)
	}

	// 20 000 km of extent puts the coarse pass on 64 km cells. A coarse
	// cell centre sits on a fine cell edge, so a strip of land 1 km wide
	// along a row of coarse centres keeps those cells and misses every
	// fine centre: the fine pass comes back empty. (The second land region
	// only anchors the set's bounding box, so that the 64 km master has a
	// row of centres on the strip too, and the 4 km master has none.)
	big := []Constraint{
		{Kind: Positive, Region: geo.Rect(geo.V2(-10000, -10000), geo.V2(10000, 10000)), Weight: 0.5},
		{Kind: Positive, Region: disk(300, 200, 400), Weight: 1},
	}
	cy := -10000 + (math.Floor((200.0+10000)/64)+0.5)*64
	strip := []*geo.Region{
		geo.Rect(geo.V2(-10000, cy-0.5), geo.V2(10000, cy+0.5)),
		geo.Rect(geo.V2(9000, cy+32-64*100), geo.V2(9001, cy+33-64*100)),
	}
	masks = NewLandMaskCache()
	opts = SolverOpts{MinAreaKm2: 100, LandRegions: strip, Masks: masks}
	got, err = Solve(big, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "fine-empty", got, referenceSolve(big, opts))
	if got.CellKm != 64 || got.Region.IsEmpty() {
		t.Errorf("fine-empty: answer at %v km cells, area %v — want the coarse pass's", got.CellKm, got.Region.Area())
	}
	if st := masks.SolverStats(); st.Passes != 2 || st.CoarseTraces != 1 {
		t.Errorf("fine pass empty: %+v, want 2 passes and 1 coarse trace", st)
	}

	masks = NewLandMaskCache()
	opts = SolverOpts{MinAreaKm2: 100, Masks: masks}
	got, err = Solve(big, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "refined", got, referenceSolve(big, opts))
	if st := masks.SolverStats(); got.CellKm != 4 || st.Passes != 2 || st.CoarseTraces != 0 {
		t.Errorf("refined: cell %v km, %+v — want the fine answer and no coarse trace", got.CellKm, st)
	}
}

// TestNoCensusUnderflowOnBenchWorld: the 16 targets of the benchmark's
// world under the default configuration never leave the fused kernel's
// table. A change that silently slides serving traffic back onto the full
// census fails here.
func TestNoCensusUnderflowOnBenchWorld(t *testing.T) {
	loc, targets := fusedFixture(t, 1, 16, 16)
	for _, target := range targets {
		if _, err := loc.LocalizeContext(context.Background(), target); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
	}
	st := loc.LandMasks().SolverStats()
	if st.Passes != 32 || st.CensusUnderflows != 0 || st.CoarseTraces != 0 {
		t.Errorf("solver stats %+v, want 32 passes, no underflow, no coarse trace", st)
	}
	if st.MaxWalkDepth == 0 || st.MaxWalkDepth > 24 {
		t.Errorf("deepest walk %d levels: the table is sized for a dozen", st.MaxWalkDepth)
	}
}

// TestNoGeneralFillsOnBenchWorld: every constraint of the benchmark world's
// 16 targets is a two-turn ring, so the claim that serving traffic never
// builds an edge table is checked rather than assumed — and a constraint
// source that starts emitting other shapes shows up here first.
func TestNoGeneralFillsOnBenchWorld(t *testing.T) {
	loc, targets := fusedFixture(t, 1, 16, 16)
	for _, target := range targets {
		if _, err := loc.LocalizeContext(context.Background(), target); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
	}
	if st := loc.LandMasks().SolverStats(); st.Passes != 32 || st.GeneralFills != 0 {
		t.Errorf("solver stats %+v, want 32 passes and no general fill", st)
	}
}

// TestSolveSkipsMostRows gates the row pruning by counting, not by
// stopwatch: on the benchmark world's 16 targets the kernel resolves only
// the rows whose weight bound can reach the level it returns — a small part
// of a coarse grid, which one far landmark's disk stretches over most of the
// plane, and half or less of all rows. With the second sweep's bound taken
// out of geo.Grid.ResolveTop both ratios read 1.
func TestSolveSkipsMostRows(t *testing.T) {
	loc, targets := fusedFixture(t, 1, 16, 16)
	// The coarse passes again, alone, counted on a cache of their own.
	opts := SolverOpts{MinAreaKm2: minRegionAreaKm2, LandRegions: loc.projContext().Land, Masks: NewLandMaskCache()}
	opts.fillDefaults()
	var s geo.Scratch
	for _, target := range targets {
		res, err := loc.LocalizeContext(context.Background(), target)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		fills, min, max, coarse := coarseGrid(res.Constraints, opts)
		solveOnGrid(s.Grid(min, max, coarse), fills, coarse, &opts)
	}
	all, coarse := loc.LandMasks().SolverStats(), opts.Masks.SolverStats()
	t.Logf("rows resolved: coarse %d of %d, all passes %d of %d", coarse.RowsResolved, coarse.RowsTotal, all.RowsResolved, all.RowsTotal)
	if all.Passes != 32 || coarse.Passes != 16 {
		t.Fatalf("%d passes, %d of them coarse: want 32 and 16", all.Passes, coarse.Passes)
	}
	if coarse.RowsResolved*5 > coarse.RowsTotal {
		t.Errorf("coarse passes resolved %d of %d rows, want at most 20 %%", coarse.RowsResolved, coarse.RowsTotal)
	}
	if all.RowsResolved*2 > all.RowsTotal {
		t.Errorf("all passes resolved %d of %d rows, want at most 50 %%", all.RowsResolved, all.RowsTotal)
	}
}

// FuzzFusedCensus builds a small unit grid from the fuzz input — rectangles
// with weights drawn from a few values plus sub-1e-9 dust, an optional land
// mask, a random area threshold — and holds the fused pass against the
// oracle. Input bytes, in order: width, height, threshold, mask kind, tower,
// then six per rectangle (x0, y0, width, height, weight, dust); with no
// rectangle every cell gets a value of its own. A non-zero tower byte stacks
// a heavy rectangle one or two cells wide over up to a third of the rows, so
// that the kernel has rows to prune. The seed corpus is
// testdata/fuzz/FuzzFusedCensus.
func FuzzFusedCensus(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		w, h := 1+next()%24, 1+next()%24
		opts := SolverOpts{MinAreaKm2: float64(1 + next()*3)}
		switch next() % 3 {
		case 1:
			opts.LandRegions = []*geo.Region{geo.Rect(geo.V2(1.3, 0.7), geo.V2(float64(w)*0.8, float64(h)*0.9))}
		case 2:
			opts.LandRegions = []*geo.Region{geo.Disk(geo.V2(float64(w)/2, float64(h)/2), float64(w+h)/5, 16)}
			opts.Masks = NewLandMaskCache()
		}
		var cs []Constraint
		if tb := next(); tb != 0 {
			x0, y0 := tb%w, (tb>>3)%h
			cs = append(cs, cellRect(x0, y0, min(x0+tb>>7, w-1), min(y0+h/3, h-1), 7+float64(tb%8)*1e-10))
		}
		if len(data) == 0 {
			// No rectangles given: one distinct value per cell.
			for i := 0; i < w*h; i++ {
				cs = append(cs, cellRect(i%w, i/w, i%w, i/w, 0.5+float64(i%251)*1e-3+float64(i%7)*1e-10))
			}
		}
		for len(data) >= 6 && len(cs) < 600 {
			x0, y0 := next()%w, next()%h
			x1, y1 := x0+next()%(w-x0), y0+next()%(h-y0)
			wb, dust := next(), next()
			weight := float64(1+wb%10)/10 + float64(dust%8)*1e-10
			if wb >= 128 {
				weight = -weight
			}
			cs = append(cs, cellRect(x0, y0, x1, y1, weight))
		}
		cs = append(cs, cellRect(0, 0, 0, 0, 0.05)) // Solve's contract: one positive
		unitPass(t, "fuzz", cs, w, h, opts)
	})
}

// BenchmarkSolve is the solver alone — prepare the fills, both grid passes,
// trace, point estimate — over the retained constraints of the benchmark
// world's 16 targets under the options Localize solves them with: one
// iteration is 16 solves. The developer number for a solver change; the
// height solve, the probes and disk construction are not in it.
func BenchmarkSolve(b *testing.B) {
	loc, targets := fusedFixture(b, 1, 16, 16)
	opts := SolverOpts{MinAreaKm2: minRegionAreaKm2, LandRegions: loc.projContext().Land, Masks: loc.LandMasks()}
	sets := make([][]Constraint, len(targets))
	for i, target := range targets {
		res, err := loc.LocalizeContext(context.Background(), target)
		if err != nil {
			b.Fatalf("%s: %v", target, err)
		}
		sets[i] = res.Constraints
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cs := range sets {
			if sol, err := Solve(cs, opts); err != nil || sol.Region.IsEmpty() {
				b.Fatalf("solve: %v, region %v", err, sol)
			}
		}
	}
}
