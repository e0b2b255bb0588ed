package geo

import "math"

// The fused grid kernel of the §2.4 solver.
//
// The solver "unions the highest-weight regions, descending by weight,
// until the result exceeds a size threshold": it reads the top of the
// weight field and nothing else. ResolveTop therefore does, in one loop over
// the rows, everything the solver needs from the whole grid — the
// constraints' spans of the row (Fill) into a one-row difference buffer,
// its prefix sum, the land mask, and a census of the top of the weight
// range — and hands back the chosen level together with the bounding box
// of its cells, so that tracing and the point estimate touch only that box.
//
// The invariant: once the constraints are prepared, each cell of the grid
// is written and read at most once, and the weights are the only grid-sized
// buffer.
//
// Row pruning. §2.4's weights fall exponentially with latency, so the level
// the walk stops at sits just under the sum of a few heavy, small disks, and
// most rows of a grid stretched by one far landmark cannot hold a cell of
// the answer. bound[y], the sum of Weight over the positive fills whose rows
// include y, bounds every cell of row y from above (negative fills and the
// land mask only lower a cell), and the row loop runs as two sweeps over one
// census table: a scout over the rows whose bound is near the largest, then,
// if its walk is vouched and reached the area threshold at level L1, only
// the other rows with bound >= L1 − ε; if not, every other row. That is
// exact: the table depends on the set of runs fed to it, not their order;
// more cells can only raise the level at which the cumulative area is
// reached, so Level >= L1; and a skipped row's cells, below L1 − ε, are no
// members of Level, name no level at or above it and could only have raised
// dropMax. So Best, Level, Cells, Box and Depth are the unpruned kernel's,
// and Underflow can differ only true → false.
//
// The running floor: the same argument after every row that changed the
// table. Once its walk is vouched and reaches the threshold at L, Level >= L,
// so the floor rises to L − ε and the entries under it go to dropMax; what
// the table turns away lies more than ε under every level the final walk
// visits, which — Underflow included — stays the walk without the floor. L
// must be a vouched walk's: a raw value just under a level quantizes up past
// it, so a raw entry's cumulative count is not a level's.
//
// The field. A resolved cell is stored, never added to what the buffer held,
// so the grid may come unzeroed (Scratch.Grid), and what is left is
// specified on the rows of Box only: resolved rows hold their weights, pruned
// rows among them are cleared to 0 — below Level, like the cells they stand
// for — and other rows are whatever the Scratch's last grid left there.
// ThresholdIn over Box, the point estimate and BoxBounds read nothing else;
// the rare censusTop fallback does, and every pruned row is cleared before it.
//
// Exactness. Levels are quantizeWeight(raw), and a cell belongs to a level
// when its raw weight quantizes to it or above (LevelFloor): prefix-sum dust
// cannot move a cell across the level it names. The census tracks exact raw
// values and quantizes at read-out: it keeps the topK largest distinct raw
// values with their cell counts and cell bounding boxes, and remembers the
// largest positive value it ever dropped. A level is read off the table only
// while it lies above that dropped value's quantization — then no untracked
// cell belongs to the level and no untracked value names a level at or above
// it. When the walk needs a level the table cannot vouch for, ResolveTop
// falls back to LevelSets on the grid it has just resolved (no refill) and
// reports the underflow.

// MaskLattice is a rasterized hard mask on its own lattice: cell (mx, my)
// covers [MinX+mx·c, MinX+(mx+1)·c) × [MinY+my·c, …) for the cell size c of
// the grid it is applied to, and weight is kept on row my's runs
// Spans[Rows[my]:Rows[my+1]], each the lattice columns [x0, x1), ascending,
// disjoint and never adjacent. Grids of any origin and extent at that cell
// size sample it by mapping each cell centre to the lattice cell containing
// it.
type MaskLattice struct {
	MinX, MinY float64
	W, H       int
	Rows       []int32 // H+1 offsets into Spans
	Spans      [][2]int32
}

// NewMaskLattice rasterizes the union of regions on g's geometry (its
// weights are not read): a cell is kept when its centre lies inside one of
// the regions, as RasterizeRegion decides region by region. One edge-table
// sweep over every ring of every region keeps a winding number per region;
// the union is open where one of them is non-zero, so each row's runs come
// out sorted and merged, and no W·H buffer exists.
func NewMaskLattice(g *Grid, regions []*Region) *MaskLattice {
	m := &MaskLattice{MinX: g.Min.X, MinY: g.Min.Y, W: g.W, H: g.H, Rows: make([]int32, 1, g.H+1), Spans: make([][2]int32, 0, g.H)}
	t := newEdgeTable(regions, g, 0, g.H-1)
	wind := make([]int, len(regions))
	for y := 0; y < g.H; y++ {
		clear(wind)
		inside, open := 0, 0.0 // regions whose winding is non-zero; where the union opened
		for _, c := range t.row(g, y) {
			was := inside
			if wind[c.reg] == 0 {
				inside++
			}
			if wind[c.reg] += c.dir; wind[c.reg] == 0 {
				inside--
			}
			switch {
			case was == 0: // nothing was open, so this crossing opens the union
				open = c.x
			case inside == 0:
				// The union closes. Unions that meet at a cell, or one
				// apart, make one run.
				x0, x1 := g.spanCells(open, c.x)
				if k := len(m.Spans) - 1; x0 <= x1 && k >= int(m.Rows[y]) && int(m.Spans[k][1]) >= x0 {
					m.Spans[k][1] = int32(x1 + 1)
				} else if x0 <= x1 {
					m.Spans = append(m.Spans, [2]int32{int32(x0), int32(x1 + 1)})
				}
			}
		}
		m.Rows = append(m.Rows, int32(len(m.Spans)))
	}
	g.s.out--
	return m
}

// CellBox is an inclusive rectangle of cell indices, empty when X1 < X0.
type CellBox struct{ X0, Y0, X1, Y1 int }

// Empty reports whether the box holds no cell.
func (b CellBox) Empty() bool { return b.X1 < b.X0 || b.Y1 < b.Y0 }

// FullBox is the box of every cell of the grid.
func (g *Grid) FullBox() CellBox { return CellBox{0, 0, g.W - 1, g.H - 1} }

// BoxBounds returns the plane rectangle box covers, by the expression ring
// vertices are computed with — so it equals, bit for bit, the bounding box
// of a region traced from cells that touch all four sides of box.
func (g *Grid) BoxBounds(box CellBox) (min, max Vec2) {
	return Vec2{g.Min.X + float64(box.X0)*g.CellKm, g.Min.Y + float64(box.Y0)*g.CellKm},
		Vec2{g.Min.X + float64(box.X1+1)*g.CellKm, g.Min.Y + float64(box.Y1+1)*g.CellKm}
}

// TopLevel is what the solver's level walk settles on for one grid.
type TopLevel struct {
	// Best is the highest quantized level present; nothing on the grid is
	// positive when Best <= 0, and the other fields are then unset.
	Best float64
	// Level is where the descending walk stopped: the first level whose
	// cells reach the area threshold, else the lowest positive level.
	Level float64
	// Cells counts the cells at or above Level (LevelFloor) and Box bounds
	// them; at least the cell that names Best is one of them.
	Cells int
	Box   CellBox
	// Depth is how many levels below Best the walk went.
	Depth int
	// Underflow is set when the top-of-range table could not answer and
	// the level came from a full LevelSets census instead.
	Underflow bool
	// Rows is how many of the grid's rows the pass resolved.
	Rows int
}

// topK is how many distinct raw values the census tracks. Serving grids
// carry hundreds of levels and the walk stops within a dozen; 96 leaves
// room for the dust-split duplicates of those levels.
const topK = 96

type topEntry struct {
	v              float64
	cells          int32
	x0, y0, x1, y1 int32
}

// topTable is the census: the largest distinct raw run values seen so far,
// descending, down to the floor.
type topTable struct {
	e [topK]topEntry
	n int
	// floor is the smallest value a run needs to enter the table: the
	// smallest positive float at first (only positive weights can matter to
	// the walk), the smallest tracked value once full, and never below
	// L − ε once a vouched walk has reached the area threshold at L (raise).
	floor float64
	// dropMax is the largest positive value that was refused or evicted.
	dropMax float64
	// grew is set by add and cleared by raise.
	grew bool
}

// fold censuses the run of value v over cells [x0, x1] of row y.
func (t *topTable) fold(v float64, y, x0, x1 int) {
	if v >= t.floor {
		t.add(v, y, x0, x1)
	} else if v > t.dropMax {
		t.dropMax = v
	}
}

// add folds the run of value v over cells [x0, x1] of row y into the table.
// The caller has checked v >= t.floor.
func (t *topTable) add(v float64, y, x0, x1 int) {
	t.grew = true
	lo, hi := 0, t.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.e[mid].v > v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < t.n && t.e[lo].v == v {
		e := &t.e[lo]
		e.cells += int32(x1 - x0 + 1)
		if int32(x0) < e.x0 {
			e.x0 = int32(x0)
		}
		if int32(x1) > e.x1 {
			e.x1 = int32(x1)
		}
		e.y0, e.y1 = min(e.y0, int32(y)), max(e.y1, int32(y))
		return
	}
	if t.n == topK {
		if d := t.e[topK-1].v; d > t.dropMax {
			t.dropMax = d
		}
	} else {
		t.n++
	}
	copy(t.e[lo+1:t.n], t.e[lo:t.n-1])
	t.e[lo] = topEntry{v: v, cells: int32(x1 - x0 + 1), x0: int32(x0), y0: int32(y), x1: int32(x1), y1: int32(y)}
	if t.n == topK {
		t.floor = t.e[topK-1].v
	}
}

// walk runs the solver's descending level walk over the table. ok is false
// when the walk reaches a level the table cannot vouch for.
func (t *topTable) walk(cellArea, minAreaKm2 float64) (top TopLevel, ok bool) {
	if t.n == 0 {
		return TopLevel{}, true
	}
	top.Best = quantizeWeight(t.e[0].v)
	if top.Best <= 0 {
		return top, true
	}
	dropped := t.dropMax > 0
	dropLevel := quantizeWeight(t.dropMax)
	top.Box = CellBox{X0: math.MaxInt32, Y0: math.MaxInt32, X1: -1, Y1: -1}
	depth := -1
	folded := 0 // entries [0, folded) are at or above the current level
	last := math.NaN()
	for k := 0; k < t.n; k++ {
		l := quantizeWeight(t.e[k].v)
		if l == last {
			continue
		}
		last = l
		if l <= 0 {
			return top, true
		}
		if dropped && !(l > dropLevel) {
			return top, false
		}
		depth++
		top.Level, top.Depth = l, depth
		for ; folded < t.n && quantizeWeight(t.e[folded].v) >= l; folded++ {
			e := &t.e[folded]
			top.Cells += int(e.cells)
			top.Box.X0 = min(top.Box.X0, int(e.x0))
			top.Box.Y0 = min(top.Box.Y0, int(e.y0))
			top.Box.X1 = max(top.Box.X1, int(e.x1))
			top.Box.Y1 = max(top.Box.Y1, int(e.y1))
		}
		if float64(top.Cells)*cellArea >= minAreaKm2 {
			return top, true
		}
	}
	// Out of tracked values below the threshold: the true end of the walk
	// only if nothing positive went untracked.
	return top, !dropped
}

// reached returns the level at which the walk reaches the area threshold; ok
// is false when the walk underflows or ends short of the threshold.
func (t *topTable) reached(cellArea, minAreaKm2 float64) (level float64, ok bool) {
	top, ok := t.walk(cellArea, minAreaKm2)
	return top.Level, ok && top.Level > 0 && float64(top.Cells)*cellArea >= minAreaKm2
}

// raise lifts the floor to L − eps when the walk reaches the threshold at a
// vouched level L, and evicts the entries below it into dropMax.
func (t *topTable) raise(cellArea, minAreaKm2, eps float64) {
	t.grew = false
	l, ok := t.reached(cellArea, minAreaKm2)
	if !ok || l-eps <= t.floor {
		return
	}
	t.floor = l - eps
	n := t.n
	for n > 0 && t.e[n-1].v < t.floor {
		n--
	}
	if n < t.n {
		t.dropMax = max(t.dropMax, t.e[n].v)
		t.n = n
	}
}

// maskRun is a stretch [x0, x1) of a grid's columns whose land-lattice
// column is x + off.
type maskRun struct{ x0, x1, off int }

// maskCols appends to runs the stretches of g's columns whose centres fall
// on land's lattice. The lattice column under grid column x is
// floor(fx + x), the retained mask application's arithmetic; a run is a
// stretch where it is x + off, cut wherever it steps otherwise.
func (g *Grid) maskCols(land *MaskLattice, runs []maskRun) []maskRun {
	fx := (g.Min.X - land.MinX + 0.5*g.CellKm) * (1 / g.CellKm)
	for x := 0; x < g.W; x++ {
		mx := int(math.Floor(fx + float64(x)))
		if mx < 0 || mx >= land.W {
			continue
		}
		if k := len(runs) - 1; k >= 0 && runs[k].x1 == x && runs[k].off == mx-x {
			runs[k].x1++
		} else {
			runs = append(runs, maskRun{x0: x, x1: x + 1, off: mx - x})
		}
	}
	return runs
}

// keptCols appends to kept the stretches [x0, x1) of row y's columns whose
// centres land keeps, ascending, then an empty stretch at W: the columns
// between them are off land. runs is maskCols'.
func (g *Grid) keptCols(land *MaskLattice, runs []maskRun, y int, kept [][2]int) [][2]int {
	my := int(math.Floor((g.rowCentre(y) - land.MinY) * (1 / g.CellKm)))
	if my < 0 || my >= land.H {
		return append(kept, [2]int{g.W, g.W})
	}
	spans := land.Spans[land.Rows[my]:land.Rows[my+1]]
	for _, r := range runs {
		for _, s := range spans {
			if a, b := max(r.x0, int(s[0])-r.off), min(r.x1, int(s[1])-r.off); a < b {
				kept = append(kept, [2]int{a, b})
			}
		}
	}
	return append(kept, [2]int{g.W, g.W})
}

// MaskOff writes excluded into every cell whose centre is off land: the
// mask pass ResolveTop makes row by row.
func (g *Grid) MaskOff(land *MaskLattice, excluded float64) {
	var runBuf [8]maskRun
	var keptBuf [16][2]int
	runs := g.maskCols(land, runBuf[:0])
	for y := 0; y < g.H; y++ {
		x := 0
		for _, k := range g.keptCols(land, runs, y, keptBuf[:0]) {
			row := g.Weight[y*g.W+x : y*g.W+k[0]]
			for i := range row {
				row[i] = excluded
			}
			x = k[1]
		}
	}
}

// scoutFrac picks the scout's rows: bound >= scoutFrac × the largest. On the
// benchmark's world (seed 1, 16 targets, 9,050 rows) 0.9 leaves 31 % of the
// rows resolved and 0.8 43 %; the rows that reach the returned level are 26 %.
const scoutFrac float64 = 0.9

// ε = levelSlack + addSlack·(W + H + 4·len(fills))·Σ|Weight|: two steps of
// quantizeWeight (a value names a level at most half a step above itself),
// plus twice the float rounding of a cell (W prefix-sum, 2·len(fills) buffer
// additions) and of its bound (H, 2·len(fills)): 2^-53 of Σ|Weight| at most each.
const levelSlack, addSlack float64 = 2e-9, 0x1p-52

// ResolveTop stores the sum of the fills into the weight field (no cell is
// read first: Scratch.Grid's unzeroed grid suffices), writes excluded into
// every cell whose centre is off land (land == nil keeps every cell), and
// returns the level the solver's walk settles on for the area threshold
// minAreaKm2, with the bounding box of that level's cells — the walk over the
// field that AddRegionBatched per fill on a zeroed grid, FlushAdds and a mask
// pass produce. On the rows of Box (every row after an Underflow) a cell at
// or above Level − levelSlack in that field holds its weight bit for bit
// (each row's fills enter its difference buffer in fill order) and a cell
// below holds that weight or, its row pruned, 0: ThresholdIn over Box reads
// the level's cells as Threshold would there. Other rows are unspecified. The
// census keeps a running floor (above); a row is read as stretches of kept
// and excluded columns, and an excluded stretch folds once.
func (g *Grid) ResolveTop(fills []Fill, land *MaskLattice, excluded, minAreaKm2 float64) TopLevel {
	// kept holds a row's stretches of kept columns (keptCols); with no land
	// it is the whole row.
	var runBuf [8]maskRun
	var keptBuf [16][2]int
	runs, kept := runBuf[:0], append(keptBuf[:0], [2]int{0, g.W}, [2]int{g.W, g.W})
	if land != nil {
		runs = g.maskCols(land, runs)
	}
	// The row buffer, the row bounds and the fills' edge tables are the
	// Scratch's; the tables are handed back once both sweeps are done.
	sc := g.scratch()
	sc.rows = resize(sc.rows, g.W+1+g.H+1)
	clear(sc.rows)
	diff, bound, out := sc.rows[:g.W+1], sc.rows[g.W+1:], sc.out
	// The bounds, as a difference buffer over the rows and its prefix sum.
	sumAbs, general := 0.0, false
	for i := range fills {
		f := &fills[i]
		f.begin(g)
		sumAbs, general = sumAbs+math.Abs(f.Weight), general || f.General()
		if f.Weight > 0 && f.y0 <= f.y1 {
			bound[f.y0] += f.Weight
			bound[f.y1+1] -= f.Weight
		}
	}
	run, peak := 0.0, 0.0
	for y := range bound[:g.H] {
		run += bound[y]
		bound[y], peak = run, max(peak, run)
	}
	scout := scoutFrac * peak
	if general {
		scout = math.Inf(-1) // EdgeTable.row must be stepped through every row
	}
	cellArea, eps := g.CellArea(), levelSlack+addSlack*float64(g.W+g.H+4*len(fills))*sumAbs
	var activeBuf [128]int32
	t := topTable{floor: math.SmallestNonzeroFloat64}
	// A sweep over [lo, hi) passes the rows whose bound is outside it.
	outside := func(b, lo, hi float64) bool { return b < lo || b >= hi }
	// sweep resolves the rows with lo <= bound < hi, ascending, and counts them.
	sweep := func(lo, hi float64) (rows int) {
		// active lists, in fill order, the fills whose rows include y; it is
		// rebuilt once y passes a row where a fill starts or ends (change).
		active, change := activeBuf[:0], 0
		for y := 0; y < g.H; y++ {
			if outside(bound[y], lo, hi) {
				continue
			}
			rows++
			if y >= change {
				active, change = active[:0], g.H
				for i := range fills {
					if f := &fills[i]; y < int(f.y0) {
						change = min(change, int(f.y0))
					} else if y <= int(f.y1) {
						active, change = append(active, int32(i)), min(change, int(f.y1)+1)
					}
				}
			}
			yc := g.rowCentre(y)
			clear(diff)
			for _, i := range active {
				fills[i].addRow(g, y, yc, diff)
			}
			wrow := g.Weight[y*g.W : (y+1)*g.W]
			if land != nil {
				kept = g.keptCols(land, runs, y, kept[:0])
			}
			run := 0.0
			cur, start := math.NaN(), 0 // the open run of equal weights
			x := 0
			for _, k := range kept {
				if x < k[0] { // an excluded stretch: one run
					for _, di := range diff[x:k[0]] {
						run += di
					}
					wr := wrow[x:k[0]]
					for i := range wr {
						wr[i] = excluded
					}
					if cur != excluded {
						t.fold(cur, y, start, x-1)
						cur, start = excluded, x
					}
				}
				wr := wrow[k[0]:k[1]]
				for i, di := range diff[k[0]:k[1]] {
					run += di
					wr[i] = run
					if run != cur {
						t.fold(cur, y, start, k[0]+i-1)
						cur, start = run, k[0]+i
					}
				}
				x = k[1]
			}
			// The buffer's last entry only ends spans.
			t.fold(cur, y, start, g.W-1)
			if t.grew {
				t.raise(cellArea, minAreaKm2, eps)
			}
		}
		return rows
	}
	rows, rest := sweep(scout, math.Inf(1)), math.Inf(-1)
	if rows < g.H {
		if l1, ok := t.reached(cellArea, minAreaKm2); ok {
			rest = l1 - eps
		}
		for i := range fills {
			fills[i].begin(g) // never an edge-table fill's: those scout every row
		}
		rows += sweep(rest, scout)
	}
	sc.out = out
	top, ok := t.walk(cellArea, minAreaKm2)
	// Clear the rows neither sweep resolved where they can be read: in the
	// box, or — the census reads the whole field — everywhere.
	y0, y1 := top.Box.Y0, top.Box.Y1
	if !ok {
		y0, y1 = 0, g.H-1
	}
	for y := y0; y <= y1 && rows < g.H; y++ {
		if b := bound[y]; outside(b, scout, math.Inf(1)) && outside(b, rest, scout) {
			clear(g.Weight[y*g.W : (y+1)*g.W])
		}
	}
	if !ok {
		top = g.censusTop(minAreaKm2)
	}
	top.Underflow, top.Rows = !ok, rows
	return top
}

// censusTop is the level walk over a full LevelSets census of the resolved
// grid — what ResolveTop falls back to when the walk outruns the table.
func (g *Grid) censusTop(minAreaKm2 float64) TopLevel {
	levels, cells := g.LevelSets()
	top := TopLevel{Best: levels[0]}
	if top.Best <= 0 {
		return top
	}
	for i, l := range levels {
		if l <= 0 {
			break
		}
		top.Level, top.Cells, top.Depth = l, cells[i], i
		if float64(cells[i])*g.CellArea() >= minAreaKm2 {
			break
		}
	}
	top.Box = CellBox{X0: g.W, Y0: g.H, X1: -1, Y1: -1}
	floor := LevelFloor(top.Level)
	for y := 0; y < g.H; y++ {
		for x, w := range g.Weight[y*g.W : (y+1)*g.W] {
			if w >= floor {
				top.Box.X0 = min(top.Box.X0, x)
				top.Box.Y0 = min(top.Box.Y0, y)
				top.Box.X1 = max(top.Box.X1, x)
				top.Box.Y1 = max(top.Box.Y1, y)
			}
		}
	}
	return top
}
