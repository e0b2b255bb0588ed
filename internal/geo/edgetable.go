package geo

import "math"

// The scanline engine behind Grid's region fills: the active edge table, and
// (Fill, below it) the two-cursor walk for the solver's disks.
//
// The naive rasterizer (scanRow in reference_test.go, the reference the
// equivalence property tests compare against) walks every edge of every ring for
// every grid row — O(rows × edges) per fill. An EdgeTable instead buckets
// each non-horizontal edge by the first row it can cross and maintains an
// incrementally-updated active list during the sweep, so a fill costs
// O(edges + Σ active-per-row) — for the convex-ish constraint disks the
// solver rasterizes, a handful of active edges per row instead of the
// whole ring.
//
// Bit-exactness: row membership and crossing coordinates are computed with
// the same floating-point comparisons and expressions as scanRow (see
// tableEdge), and crossings are ordered by the same deterministic
// comparator (sortCrossings), so the edge-table and naive rasterizers
// produce cell-for-cell identical output.

// tableEdge is one non-horizontal ring edge prepared for scanline sweeps.
// Endpoints keep their original ring order so the crossing coordinate is
// computed with exactly the expression scanRow uses.
type tableEdge struct {
	ax, ay, bx, by float64
	// The edge crosses scanline yc iff lo <= yc < hi — the same half-open
	// predicate scanRow evaluates ((a.Y <= yc && b.Y > yc) for upward
	// edges, (b.Y <= yc && a.Y > yc) for downward), on the same floats.
	lo, hi float64
	dir    int8  // winding direction: +1 upward (ay < by), -1 downward
	reg    int32 // index of the edge's region in the table's region list
}

// EdgeTable holds regions' edges bucketed by starting grid row, and the
// state of one scanline sweep over rows [y0, y1] of a grid. Buckets use a
// CSR layout (starts/items) rather than a slice per row, so building a
// table costs a handful of allocations no matter how many rows it spans.
//
// Tables belong to a grid's Scratch, so that a fill's buffers (build and
// sweep scratch included) are reused by the next fill the Scratch serves.
type EdgeTable struct {
	edges  []tableEdge
	starts []int32 // CSR offsets into items, len rows+1
	items  []int32 // edge indices grouped by first eligible row
	y0, y1 int     // inclusive sweep row range

	rowOf []int32 // build scratch: first eligible row per edge
	next  []int32 // build scratch: counting-sort placement cursor

	active []int32    // sweep state: edges admitted and not yet retired
	cross  []crossing // sweep scratch: the current row's crossings
}

// newEdgeTable buckets the edges of regions for sweeps over grid rows
// [y0, y1]; each crossing names the region its edge came from. Bucket rows
// are conservative (an edge may enter its bucket a row early); the sweep
// re-checks the exact crossing predicate every row, so the bounds only have
// to never be late. The table is the first of g's Scratch's not in use; the
// caller hands it back (Scratch.out) when its sweep is done.
func newEdgeTable(regions []*Region, g *Grid, y0, y1 int) *EdgeTable {
	sc := g.scratch()
	if sc.out == len(sc.tables) {
		sc.tables = append(sc.tables, new(EdgeTable))
	}
	t := sc.tables[sc.out]
	sc.out++
	t.y0, t.y1 = y0, y1
	t.edges, t.active = t.edges[:0], t.active[:0]
	rowOf := t.rowOf[:0] // first eligible row per edge, relative to y0
	inv := 1 / g.CellKm
	for ri, r := range regions {
		if r == nil {
			continue
		}
		for _, ring := range r.Rings {
			n := len(ring)
			for i := 0; i < n; i++ {
				a := ring[i]
				b := ring[(i+1)%n]
				if a.Y == b.Y {
					continue
				}
				e := tableEdge{ax: a.X, ay: a.Y, bx: b.X, by: b.Y, reg: int32(ri)}
				if a.Y < b.Y {
					e.lo, e.hi, e.dir = a.Y, b.Y, 1
				} else {
					e.lo, e.hi, e.dir = b.Y, a.Y, -1
				}
				// Row y has centre yc = Min.Y + (y+0.5)·cell; the true active
				// range solves lo <= yc < hi. Widen by one row on each side to
				// absorb floating-point rounding of the division.
				first := int(math.Floor((e.lo-g.Min.Y)*inv-0.5)) - 1
				last := int(math.Ceil((e.hi-g.Min.Y)*inv-0.5)) + 1
				if last < y0 || first > y1 {
					continue
				}
				if first < y0 {
					first = y0
				}
				t.edges = append(t.edges, e)
				rowOf = append(rowOf, int32(first-y0))
			}
		}
	}
	t.rowOf = rowOf
	rows := y1 - y0 + 1
	t.starts = resize(t.starts, rows+1)
	clear(t.starts)
	for _, ri := range rowOf {
		t.starts[ri+1]++
	}
	for i := 1; i <= rows; i++ {
		t.starts[i] += t.starts[i-1]
	}
	// items and next are fully overwritten below, so reused capacity needs
	// no clearing: the counting sort writes every items slot exactly once.
	t.items = resize(t.items, len(t.edges))
	t.next = append(t.next[:0], t.starts[:rows]...)
	next := t.next
	// Counting-sort placement preserves edge order within a bucket, so the
	// active list admits edges in the same order per-row append buckets
	// would — keeping crossing order, and therefore output, deterministic.
	for i, ri := range rowOf {
		t.items[next[ri]] = int32(i)
		next[ri]++
	}
	return t
}

// sweep scans the table's rows in ascending order, invoking fn(y, x0, x1)
// for every maximal run of row-y cells whose centres lie inside the region.
func (t *EdgeTable) sweep(g *Grid, fn func(y, x0, x1 int)) {
	for y := t.y0; y <= t.y1; y++ {
		if cross := t.row(g, y); len(cross) > 0 {
			emitSpans(g, cross, y, fn)
		}
	}
}

// row is one step of the sweep: the sorted crossings of the scanline through
// the centres of row y, valid until the next call. Rows must be asked for in
// ascending order from y0 without gaps — the active list admits row y's
// bucket here and retires edges the scanline has passed — but not all at
// once: Grid.ResolveTop steps several tables through a row before moving on.
func (t *EdgeTable) row(g *Grid, y int) []crossing {
	bi := y - t.y0 // admit the edges first eligible at this row
	active := append(t.active, t.items[t.starts[bi]:t.starts[bi+1]]...)
	cross := t.cross[:0]
	yc := g.rowCentre(y)
	keep := active[:0]
	for _, ei := range active {
		e := &t.edges[ei]
		if yc >= e.hi {
			continue // scanline passed the edge: retire it
		}
		keep = append(keep, ei)
		if e.lo > yc {
			continue // bucketed conservatively early; not active yet
		}
		// Identical expression to scanRow, bit for bit.
		tt := (yc - e.ay) / (e.by - e.ay)
		cross = append(cross, crossing{x: e.ax + tt*(e.bx-e.ax), dir: int(e.dir), reg: e.reg})
	}
	sortCrossings(cross)
	t.active, t.cross = keep, cross
	return cross
}

// sortCrossings orders crossings by (x, dir) with a zero-allocation
// insertion sort (active lists are small). The dir tie-break makes the
// order a deterministic function of the crossing multiset, which is what
// lets the naive and edge-table rasterizers agree bit-for-bit: equal
// (x, dir) crossings are interchangeable for span extraction.
func sortCrossings(buf []crossing) {
	for i := 1; i < len(buf); i++ {
		c := buf[i]
		j := i - 1
		for j >= 0 && (buf[j].x > c.x || (buf[j].x == c.x && buf[j].dir > c.dir)) {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = c
	}
}

// spanCells returns the cells of a row whose centres lie in [open, close],
// clipped to the grid; x0 > x1 when there is none.
func (g *Grid) spanCells(open, close float64) (x0, x1 int) {
	x0 = int(math.Ceil((open-g.Min.X)/g.CellKm - 0.5))
	x1 = int(math.Floor((close-g.Min.X)/g.CellKm - 0.5))
	if x0 < 0 {
		x0 = 0
	}
	if x1 >= g.W {
		x1 = g.W - 1
	}
	return x0, x1
}

// emitSpans converts one row's sorted crossings into cell spans under the
// non-zero winding rule, invoking fn for each maximal inside-run.
func emitSpans(g *Grid, buf []crossing, y int, fn func(y, x0, x1 int)) {
	wind := 0
	var openX float64
	for i := 0; i < len(buf); i++ {
		prev := wind
		wind += buf[i].dir
		if prev == 0 && wind != 0 {
			openX = buf[i].x
		} else if prev != 0 && wind == 0 {
			if x0, x1 := g.spanCells(openX, buf[i].x); x0 <= x1 {
				fn(y, x0, x1)
			}
		}
	}
}

// forEachSpan rasterizes r over the grid, rows ascending, invoking
// fn(y, x0, x1) for every maximal inside-run of cells. This is the single
// span visitor behind AddRegion, AddRegionBatched and RasterizeRegion;
// NewMaskLattice sweeps its own table over several regions at once.
func (g *Grid) forEachSpan(r *Region, fn func(y, x0, x1 int)) {
	min, max, ok := r.BoundingBox()
	if !ok {
		return
	}
	if y0, y1 := g.rowRange(min, max); y0 <= y1 {
		newEdgeTable([]*Region{r}, g, y0, y1).sweep(g, fn)
		g.s.out--
	}
}

// rowRange returns the grid rows a region with bounding box [min, max] can
// have spans on, never too few; y0 > y1 when there is none.
func (g *Grid) rowRange(min, max Vec2) (y0, y1 int) {
	// A region wholly left or right of the grid emits no span: spans are
	// clipped to cell centres, which sit half a cell inside the grid edge.
	if max.X < g.Min.X || min.X > g.Min.X+float64(g.W)*g.CellKm {
		return 0, -1
	}
	y0 = int(math.Floor((min.Y - g.Min.Y) / g.CellKm))
	y1 = int(math.Ceil((max.Y - g.Min.Y) / g.CellKm))
	if y0 < 0 {
		y0 = 0
	}
	if y1 > g.H-1 {
		y1 = g.H - 1
	}
	return y0, y1
}

// Fill is one weighted region prepared for Grid.ResolveTop, which lets every
// fill write its spans of a row before the row is resolved; a solve prepares
// each constraint once for both of its passes. A single ring whose
// non-horizontal edges change vertical direction exactly twice — every
// polygonalized disk — splits into an ascending and a descending chain, each
// tiling [Min.Y, Max.Y) with its edges' [lo, hi) (chain neighbours share a
// vertex; a horizontal run keeps its Y). A scanline there crosses exactly one
// edge of each chain, and the span between the two crossings is what sorting
// a +1 and a −1 crossing under the non-zero winding rule yields: two cursors
// replace the edge table. The property is tested per ring, never assumed;
// any other region steps an EdgeTable. Both routes use scanRow's expressions
// and agree with it cell for cell.
//
// Whole rows. A chain edge a cell or more left of column 0's centres (max x
// <= left) or right of the last column's (min x >= right) has no crossing
// that spanCells does not clamp to column 0, or W−1: a crossing strays a few
// ulps from its edge's x-range, which the cell of margin absorbs (begin
// refuses rings so far out that ulps are no small part of a cell). With one
// cursor clear on each side the span is the row, and is not computed.
type Fill struct {
	Region   *Region
	Weight   float64
	Min, Max Vec2 // Region's bounding box

	// up and down are the first edges of the ascending and the descending
	// chain, edge i running ring[i] → ring[i+1]; each chain continues in
	// ring order up to the other's first edge. down < 0: edge-table route.
	up, down int32

	// The pass in progress: rows y0..y1 can hold spans; asc and desc are the
	// chain edges under the scanline, table the other route's sweep; an edge
	// wholly at or beyond left or right is clear of the grid on that side.
	y0, y1      int32
	asc, desc   chainEdge
	left, right float64
	table       *EdgeTable
}

// chainEdge is the edge of a monotone chain that the scanline currently
// crosses, as the operands of the crossing expression.
type chainEdge struct {
	i              int32   // edge index in the ring
	side           int8    // −1: clear of the grid on the left, +1: on the right
	ax, ay, dx, dy float64 // a, and b − a
	hi             float64 // the scanline is past the edge once yc >= hi
}

// maxChainCoord bounds a ring's coordinates on the two-cursor route: within
// it no difference overflows, so crossings are finite and ordered (NaN fails).
const maxChainCoord = 1e150

// PrepareFill visits r once and returns it ready to rasterize with weight w;
// ok is false when r encloses no area (Region.IsEmpty): the solver drops it.
func PrepareFill(r *Region, w float64) (f Fill, ok bool) {
	f = Fill{Region: r, Weight: w, down: -1}
	if r == nil || len(r.Rings) != 1 {
		f.Min, f.Max, ok = r.BoundingBox()
		return f, ok && !r.IsEmpty()
	}
	ring := r.Rings[0]
	if len(ring) < 3 {
		return f, false
	}
	// One walk over the edges: the shoelace sum in signedArea's order, the
	// bounding box, and the runs of ascending and descending edges.
	var area float64
	lo, hi := ring[0], ring[0]
	up, down := -1, -1
	last, turns := 0, 0 // direction of the latest non-horizontal edge; changes so far
	for i := range ring {
		a, b := ringEdge(ring, i)
		area += a.X*b.Y - b.X*a.Y
		lo.X, lo.Y = min(lo.X, b.X), min(lo.Y, b.Y)
		hi.X, hi.Y = max(hi.X, b.X), max(hi.Y, b.Y)
		if a.Y == b.Y {
			continue
		}
		d := 1
		if a.Y > b.Y {
			d = -1
		}
		if d != last {
			if last != 0 {
				turns++
			}
			if last = d; d > 0 {
				up = i
			} else {
				down = i
			}
		}
	}
	if area/2 < 1e-9 {
		return f, false
	}
	f.Min, f.Max = lo, hi
	// Around the closed ring the direction changes an even number of times:
	// one or two changes seen from vertex 0 are two turns.
	if (turns == 1 || turns == 2) && lo.X >= -maxChainCoord && lo.Y >= -maxChainCoord && hi.X <= maxChainCoord && hi.Y <= maxChainCoord {
		f.up, f.down = int32(up), int32(down)
	}
	return f, true
}

// ringEdge returns edge i of the closed ring: ring[i] → ring[i+1].
func ringEdge(ring Ring, i int) (a, b Vec2) {
	if i+1 < len(ring) {
		return ring[i], ring[i+1]
	}
	return ring[i], ring[0]
}

// General reports whether the fill takes the edge-table route.
func (f *Fill) General() bool { return f.down < 0 }

// begin readies the fill for a sweep over g, rows ascending, gaps allowed on
// the two-cursor route; the table it may draw is in use until ResolveTop
// returns.
func (f *Fill) begin(g *Grid) {
	y0, y1 := g.rowRange(f.Min, f.Max)
	f.y0, f.y1, f.table = int32(y0), int32(y1), nil
	if y0 <= y1 && f.General() {
		f.table = newEdgeTable([]*Region{f.Region}, g, y0, y1)
	}
	// Both cursors wait below the bottom turn — the ascending chain's first
	// edge, the descending chain's last — for the first row inside the ring.
	f.asc, f.desc = chainEdge{i: f.up - 1, hi: math.Inf(-1)}, chainEdge{i: f.up, hi: math.Inf(-1)}
	f.left, f.right = g.Min.X-g.CellKm, g.Min.X+float64(g.W+1)*g.CellKm
	if far := 0x1p40 * g.CellKm; f.Min.X < -far || f.Max.X > far { // ulps there: cell/2¹¹
		f.left, f.right = math.Inf(-1), math.Inf(1)
	}
}

// advance moves c along its chain — step +1 in ring order for the ascending
// chain, −1 for the descending one, both upward — to the first edge the
// scanline yc has not passed; addRow only asks below Max.Y, so there is one.
func (f *Fill) advance(c *chainEdge, step int, yc float64) {
	ring := f.Region.Rings[0]
	n, i := len(ring), int(c.i)
	for {
		i += step
		if i == n {
			i = 0
		} else if i < 0 {
			i = n - 1
		}
		a, b := ringEdge(ring, i)
		if hi := max(a.Y, b.Y); a.Y != b.Y && yc < hi {
			*c = chainEdge{i: int32(i), ax: a.X, ay: a.Y, dx: b.X - a.X, dy: b.Y - a.Y, hi: hi}
			if max(a.X, b.X) <= f.left {
				c.side = -1
			} else if min(a.X, b.X) >= f.right {
				c.side = 1
			}
			return
		}
	}
}

// addRow adds the fill's spans of row y, whose centres lie on yc, to the
// row's difference buffer d: +Weight where a span opens, − one past its end.
func (f *Fill) addRow(g *Grid, y int, yc float64, d []float64) {
	w := f.Weight
	if f.General() {
		emitSpans(g, f.table.row(g, y), y, func(_, x0, x1 int) {
			d[x0] += w
			d[x1+1] -= w
		})
		return
	}
	if yc < f.Min.Y || yc >= f.Max.Y {
		return // the turns are the ring's lowest and highest vertices
	}
	if yc >= f.asc.hi {
		f.advance(&f.asc, 1, yc)
	}
	if yc >= f.desc.hi {
		f.advance(&f.desc, -1, yc)
	}
	if f.asc.side*f.desc.side < 0 { // one clear on each side: the whole row
		d[0] += w
		d[g.W] -= w
		return
	}
	// scanRow's crossing expression, on the same operands.
	lo := f.asc.ax + (yc-f.asc.ay)/f.asc.dy*f.asc.dx
	hi := f.desc.ax + (yc-f.desc.ay)/f.desc.dy*f.desc.dx
	if hi < lo {
		lo, hi = hi, lo
	}
	if x0, x1 := g.spanCells(lo, hi); x0 <= x1 {
		d[x0] += w
		d[x1+1] -= w
	}
}
