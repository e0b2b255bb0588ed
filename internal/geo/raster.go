package geo

import (
	"math"
	"slices"
)

// Grid is a uniform weight-accumulation grid over a rectangle of the
// projection plane. It is the robust geometry engine behind Octant's
// weighted constraint solver (§2.4): constraint regions add (or mask)
// weight, and a level set of the accumulated weight field is extracted back
// into a Region by boundary tracing.
//
// Region fills run on the active-edge-table scanline engine (edgetable.go).
// What a pass over the grid works in beyond its weights comes from its
// Scratch: the one that handed the grid out, or one made on first use.
type Grid struct {
	Min    Vec2      // lower-left corner of cell (0,0)
	CellKm float64   // cell edge length
	W, H   int       // cells in x and y
	Weight []float64 // W*H weights, row-major (y*W + x)

	// diff is the row-difference buffer behind AddRegionBatched, (W+1)*H
	// entries, made on first use and dropped by FlushAdds.
	diff []float64
	s    *Scratch
}

// Scratch holds the buffers one grid pass draws: the weights of the grid it
// hands out, ResolveTop's row-difference and row-bound buffer, ThresholdIn's
// mask, the boundary tracer's tables and the edge tables of the pass's
// general fills. Whoever runs the pass owns it, so a solve that keeps its
// Scratch allocates none of them again, whatever the garbage collector does
// in between. The zero value is ready to use. A Scratch serves one pass at a
// time and is not safe for concurrent use.
type Scratch struct {
	grid  Grid
	rows  []float64
	mask  []bool
	trace traceScratch
	// tables are the edge tables newEdgeTable draws, the first out of them
	// in use: one per general fill until ResolveTop returns, one for a span
	// visit's or a mask build's sweep.
	tables []*EdgeTable
	out    int
}

// Grid returns the grid NewGrid would shape, its weights left as the
// Scratch's last grid left them — for ResolveTop, which stores every cell it
// specifies. A Scratch hands out one grid at a time: the next call reshapes
// this one.
func (s *Scratch) Grid(min, max Vec2, cellKm float64) *Grid {
	g := shape(min, max, cellKm)
	g.Weight, g.s = resize(s.grid.Weight, g.W*g.H), s
	s.grid = g
	return &s.grid
}

// NewGrid creates a zeroed grid covering [min, max] at the given cell size,
// expanded to a whole number of cells: what AddRegionBatched adds onto.
func NewGrid(min, max Vec2, cellKm float64) *Grid {
	g := shape(min, max, cellKm)
	g.Weight = make([]float64, g.W*g.H)
	return &g
}

// shape is the weightless grid covering [lo, hi] at the given cell size,
// coarsened until it holds at most 4M cells.
func shape(lo, hi Vec2, cellKm float64) Grid {
	if cellKm <= 0 {
		cellKm = 1
	}
	for {
		w, h := max(1, int(math.Ceil((hi.X-lo.X)/cellKm))), max(1, int(math.Ceil((hi.Y-lo.Y)/cellKm)))
		if w*h <= 1<<22 {
			return Grid{Min: lo, CellKm: cellKm, W: w, H: h}
		}
		cellKm *= 2
	}
}

// Release does nothing: a grid's buffers belong to its Scratch. It is kept
// for the benchmark's replay rung, which calls it.
func (g *Grid) Release() {}

// scratch returns the grid's Scratch, making one on first use.
func (g *Grid) scratch() *Scratch {
	if g.s == nil {
		g.s = new(Scratch)
	}
	return g.s
}

// resize reslices s to length n, reallocating only when capacity falls
// short. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// CellCenter returns the plane coordinate of the centre of cell (x, y).
func (g *Grid) CellCenter(x, y int) Vec2 {
	return Vec2{
		X: g.Min.X + (float64(x)+0.5)*g.CellKm,
		Y: g.Min.Y + (float64(y)+0.5)*g.CellKm,
	}
}

// rowCentre is the plane y of row y's cell centres: the row's scanline.
func (g *Grid) rowCentre(y int) float64 { return g.Min.Y + (float64(y)+0.5)*g.CellKm }

// crossing is an x-coordinate where a ring edge crosses a scanline, with the
// winding direction of the edge and the index of its region in the table's
// list (NewMaskLattice's sweep keeps a winding number per region).
type crossing struct {
	x   float64
	dir int
	reg int32
}

// AddRegionBatched adds weight w to every cell whose centre lies inside r,
// as row-difference updates: two writes per span instead of one per cell.
// The additions take effect only after FlushAdds resolves the buffer with
// one prefix-sum pass, onto the zeros of NewGrid or whatever the grid holds.
// The solver does the same a row at a time inside ResolveTop, which stores
// instead of adding and only on the rows that can reach the level it returns:
// on the rows of that level's box the two fields agree bit for bit in every
// cell within levelSlack of the level or above it, and a cell below may read
// 0 there; ResolveTop's other rows are unspecified. Its oracle and the
// benchmark's replay use this whole-grid form.
func (g *Grid) AddRegionBatched(r *Region, w float64) {
	if g.diff == nil {
		g.diff = make([]float64, (g.W+1)*g.H)
	}
	diff, stride := g.diff, g.W+1
	g.forEachSpan(r, func(y, x0, x1 int) {
		diff[y*stride+x0] += w
		diff[y*stride+x1+1] -= w
	})
}

// FlushAdds applies all AddRegionBatched updates to the weight field and
// drops the difference buffer. A no-op when nothing was batched.
func (g *Grid) FlushAdds() {
	if g.diff == nil {
		return
	}
	diff, stride := g.diff, g.W+1
	for y := 0; y < g.H; y++ {
		drow := diff[y*stride : y*stride+g.W] // last diff entry only ends spans
		wrow := g.Weight[y*g.W : (y+1)*g.W]
		run := 0.0
		for x, d := range drow {
			run += d
			wrow[x] += run
		}
	}
	g.diff = nil
}

// LevelSets returns the distinct quantized cell weights in descending
// order and, parallel to it, the number of cells at or above each level
// (LevelFloor) — cells[i] equals AreaAtOrAbove(levels[i])/CellArea(),
// computed for every level in one grid pass instead of one scan per level:
// each cell is binned at its own quantized weight, the highest level it
// belongs to, and the bins are summed from the top. Because fills write
// constant-weight spans, consecutive cells usually repeat and cost a single
// comparison each.
func (g *Grid) LevelSets() (levels []float64, cells []int) {
	lastW, bin := math.NaN(), 0
	for _, w := range g.Weight {
		if w != lastW {
			q := quantizeWeight(w)
			lo, hi := 0, len(levels)
			for lo < hi {
				if mid := int(uint(lo+hi) >> 1); levels[mid] > q {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo == len(levels) || levels[lo] != q {
				levels, cells = slices.Insert(levels, lo, q), slices.Insert(cells, lo, 0)
			}
			lastW, bin = w, lo
		}
		cells[bin]++
	}
	for i := 1; i < len(cells); i++ {
		cells[i] += cells[i-1]
	}
	return levels, cells
}

// quantizeWeight collapses floating-point dust so that equal-weight cells
// compare equal.
func quantizeWeight(w float64) float64 {
	return math.Round(w*1e9) / 1e9
}

// LevelFloor returns the least raw weight that belongs to level, a quantized
// weight: a cell belongs to a level when its weight quantizes to it or above,
// so the cell that names a level always belongs to it, and the last bits of a
// weight move a cell across a level only with the level it names.
func LevelFloor(level float64) float64 {
	if math.IsInf(level, 0) || math.IsNaN(level) {
		return level
	}
	w := level - 0.5e-9 // within an ulp or two of the rounding boundary
	for quantizeWeight(w) >= level {
		w = math.Nextafter(w, math.Inf(-1))
	}
	for quantizeWeight(w) < level {
		w = math.Nextafter(w, math.Inf(1))
	}
	return w
}

// Threshold extracts the region of the cells at or above level (LevelFloor),
// tracing the cell boundary into properly oriented rings (outer CCW, holes CW).
func (g *Grid) Threshold(level float64) *Region {
	return g.ThresholdIn(level, g.FullBox())
}

// ThresholdIn is Threshold for a caller that knows every cell at or above
// level lies inside box: only the box is scanned and traced. Ring vertices
// are computed from absolute cell indices and boundary edges are emitted in
// the same row-major order, so the region is bit-identical to Threshold's.
func (g *Grid) ThresholdIn(level float64, box CellBox) *Region {
	if box.Empty() {
		return EmptyRegion()
	}
	bw, bh := box.X1-box.X0+1, box.Y1-box.Y0+1
	sc := g.scratch()
	sc.mask = resize(sc.mask, bw*bh+bh)
	clear(sc.mask)
	inside, filled := sc.mask[:bw*bh], sc.mask[bw*bh:]
	any, floor := false, LevelFloor(level)
	for y := 0; y < bh; y++ {
		wrow := g.Weight[(box.Y0+y)*g.W+box.X0:][:bw]
		irow := inside[y*bw:][:bw]
		row := false
		for x, w := range wrow {
			if w >= floor {
				irow[x], row = true, true
			}
		}
		filled[y], any = row, any || row
	}
	if !any {
		return EmptyRegion()
	}
	return g.traceWindow(inside, box, filled)
}

// CellArea returns the area of one cell in km².
func (g *Grid) CellArea() float64 { return g.CellKm * g.CellKm }

// vkey is an integer grid-vertex coordinate in [0..W]x[0..H].
type vkey struct{ x, y int32 }

// dirEdge is one directed boundary edge between grid vertices.
type dirEdge struct{ from, to vkey }

// traceScratch is the per-trace working set: the directed-edge table with
// its per-vertex-row offsets, an all-outside mask row, and the current loop
// as vertex keys and as plane points. Rings are retained by the caller and
// stay off the scratch.
type traceScratch struct {
	edges    []dirEdge
	rowStart []int32
	outside  []bool
	loop     []vkey
	pts      Ring
}

// taken, as its end's x, marks an edge a loop has used.
const taken = math.MinInt32

// traceBoundary converts a binary cell mask into a Region. Directed
// boundary edges are emitted with the inside on the left, then linked into
// loops, producing CCW outer rings and CW holes without post-processing.
func (g *Grid) traceBoundary(inside []bool) *Region {
	return g.traceWindow(inside, g.FullBox(), nil)
}

// traceWindow is traceBoundary for a mask covering only the cells of box
// (row-major, box-relative); everything outside the box counts as outside.
// Vertex keys stay absolute grid coordinates, so a window around the same
// cells traces the same rings as the whole-grid mask. filled, when not nil,
// tells which mask rows hold a cell: a vertex row between two empty rows
// starts no edge and is not scanned.
//
// The edge table is indexed, not sorted: it is built a vertex row at a time
// from the two mask rows that meet there, so edges come out ordered by start
// vertex (row, then x), and rowStart[r] is where vertex row r begins — "the
// edges starting at v" is a search of that row's few edges. At one vertex the
// four possible edges are listed as a row-major walk over the cells (bottom,
// top, left, right edge of each) meets them: that is the candidate order the
// saddle rule sees, and with the loop starts below it fixes every ring byte
// for byte (traceWindowReference in the tests sorts such a walk and agrees).
func (g *Grid) traceWindow(inside []bool, box CellBox, filled []bool) *Region {
	bw, bh := box.X1-box.X0+1, box.Y1-box.Y0+1
	ts := &g.scratch().trace
	if cap(ts.outside) < bw {
		ts.outside = make([]bool, bw)
	}
	edges, rowStart := ts.edges[:0], resize(ts.rowStart, bh+2)
	// emit lists the edges that start at vertex (x, y), given the cells around
	// it, sw and se below the vertex row, nw and ne above: leftward along sw's
	// top, down se's left, up nw's right, rightward along ne's bottom.
	emit := func(x, y int32, sw, se, nw, ne bool) {
		if sw && !nw {
			edges = append(edges, dirEdge{vkey{x, y}, vkey{x - 1, y}})
		}
		if se && !sw {
			edges = append(edges, dirEdge{vkey{x, y}, vkey{x, y - 1}})
		}
		if nw && !ne {
			edges = append(edges, dirEdge{vkey{x, y}, vkey{x, y + 1}})
		}
		if ne && !se {
			edges = append(edges, dirEdge{vkey{x, y}, vkey{x + 1, y}})
		}
	}
	below := ts.outside[:bw]
	for vy := 0; vy <= bh; vy++ {
		rowStart[vy] = int32(len(edges))
		above := ts.outside[:bw]
		if vy < bh {
			above = inside[vy*bw:][:bw]
		}
		if filled == nil || (vy > 0 && filled[vy-1]) || (vy < bh && filled[vy]) {
			y := int32(box.Y0 + vy)
			sw, nw := false, false
			for vx, se := range below {
				ne := above[vx]
				if sw != se || nw != ne || sw != nw { // a boundary passes through
					emit(int32(box.X0+vx), y, sw, se, nw, ne)
				}
				sw, nw = se, ne
			}
			if sw || nw {
				emit(int32(box.X1+1), y, sw, false, nw, false)
			}
		}
		below = above
	}
	rowStart[bh+1] = int32(len(edges))
	ts.edges, ts.rowStart = edges, rowStart
	// findFrom returns the [i, j) range of edges starting at v: a bisection
	// of its vertex row's edges down to a handful, then a scan.
	findFrom := func(v vkey) (int, int) {
		r := int(v.y) - box.Y0
		i, end := int(rowStart[r]), int(rowStart[r+1])
		for hi := end; hi-i > 8; {
			if mid := int(uint(i+hi) >> 1); edges[mid].from.x < v.x {
				i = mid + 1
			} else {
				hi = mid
			}
		}
		for i < end && edges[i].from.x < v.x {
			i++
		}
		j := i
		for j < end && edges[j].from.x == v.x {
			j++
		}
		return i, j
	}
	remaining := len(edges)
	cursor := 0 // edges before cursor are all taken
	var rings []Ring
	loop := ts.loop
	for remaining > 0 {
		for edges[cursor].to.x == taken {
			cursor++
		}
		// Edge order makes edges[cursor].from the smallest keyed vertex
		// remaining, so ring order and vertex rotation are deterministic:
		// varying start points would vary the float accumulation order of
		// Area/centroid sums between runs, making identical localizations
		// differ in low-order bits.
		start := edges[cursor].from
		cur := start
		prev := vkey{-1 << 30, -1 << 30}
		loop = loop[:0]
		for {
			i, j := findFrom(cur)
			pick := -1
			nc := 0
			var cands [4]int
			for k := i; k < j; k++ {
				if edges[k].to.x != taken {
					cands[nc] = k
					nc++
				}
			}
			if nc == 0 {
				break // should not happen on a well-formed mask
			}
			if nc == 1 {
				pick = cands[0]
			} else {
				// Saddle: prefer the sharpest left turn relative to the
				// incoming direction to keep loops from merging.
				pick = cands[0]
				if prev.x >= -1<<29 {
					inDir := Vec2{float64(cur.x - prev.x), float64(cur.y - prev.y)}
					bestScore := -math.MaxFloat64
					for _, k := range cands[:nc] {
						n := edges[k].to
						out := Vec2{float64(n.x - cur.x), float64(n.y - cur.y)}
						// Left turns have positive cross; score by angle
						// turned left.
						score := math.Atan2(inDir.Cross(out), inDir.Dot(out))
						if score > bestScore {
							bestScore = score
							pick = k
						}
					}
				}
			}
			remaining--
			loop = append(loop, cur)
			prev, cur = cur, edges[pick].to
			edges[pick].to.x = taken
			if cur == start {
				break
			}
		}
		if len(loop) >= 4 {
			pts := ts.pts[:0]
			for _, v := range loop {
				pts = append(pts, Vec2{
					X: g.Min.X + float64(v.x)*g.CellKm,
					Y: g.Min.Y + float64(v.y)*g.CellKm,
				})
			}
			ts.pts = pts
			if ring := collapseCollinear(pts); len(ring) >= 3 {
				rings = append(rings, ring)
			}
		}
	}
	ts.loop = loop
	return &Region{Rings: rings}
}

// collapseCollinear returns a copy of ring without the interior vertices
// that lie on a straight line between their neighbours (axis-aligned grid
// output produces long runs).
func collapseCollinear(ring Ring) Ring {
	n := len(ring)
	if n < 3 {
		return ring.Clone()
	}
	out := make(Ring, 0, n)
	a := ring[n-1]
	for i := range ring {
		b, c := ringEdge(ring, i)
		if math.Abs(isLeft(a, c, b)) > 1e-12 {
			out = append(out, b)
		}
		a = b
	}
	if len(out) < 3 {
		return append(out[:0], ring...)
	}
	return out
}

// RasterizeRegion computes the binary inside-mask of r on grid geometry: a
// cell is true when its centre lies inside r.
func (g *Grid) RasterizeRegion(r *Region) []bool {
	inside := make([]bool, g.W*g.H)
	g.forEachSpan(r, func(y, x0, x1 int) {
		row := inside[y*g.W+x0 : y*g.W+x1+1]
		for i := range row {
			row[i] = true
		}
	})
	return inside
}

// rasterBool combines two regions cell by cell with op, on a grid over the
// box the result can occupy — both boxes' overlap, widened to the whole box
// of an operand op keeps where it stands alone — and traces the result.
// Where the operands cannot meet (one is empty, or their boxes are disjoint)
// the result is, exactly, each operand that op keeps alone.
func rasterBool(a, b *Region, opts *BoolOpts, op func(x, y bool) bool) *Region {
	onlyA, onlyB := op(true, false), op(false, true)
	amin, amax, _ := a.BoundingBox()
	bmin, bmax, _ := b.BoundingBox()
	lo := Vec2{max(amin.X, bmin.X), max(amin.Y, bmin.Y)}
	hi := Vec2{min(amax.X, bmax.X), min(amax.Y, bmax.Y)}
	if aEmpty, bEmpty := a.IsEmpty(), b.IsEmpty(); aEmpty || bEmpty || lo.X >= hi.X || lo.Y >= hi.Y {
		out := EmptyRegion()
		if onlyA && !aEmpty {
			out.Rings = a.Clone().Rings
		}
		if onlyB && !bEmpty {
			out.Rings = append(out.Rings, b.Clone().Rings...)
		}
		return out
	}
	if onlyA {
		lo, hi = amin, amax
	}
	if onlyB {
		lo, hi = Vec2{min(lo.X, bmin.X), min(lo.Y, bmin.Y)}, Vec2{max(hi.X, bmax.X), max(hi.Y, bmax.Y)}
	}
	var cellKm float64
	if opts != nil {
		cellKm = opts.CellKm
	}
	if cellKm <= 0 {
		cellKm = clamp(hi.Sub(lo).Len()/400, 0.2, 25)
	}
	pad := cellKm * 2
	g := NewGrid(Vec2{lo.X - pad, lo.Y - pad}, Vec2{hi.X + pad, hi.Y + pad}, cellKm)
	ma, mb := g.RasterizeRegion(a), g.RasterizeRegion(b) // ma becomes the combination
	any := false
	for i := range ma {
		ma[i] = op(ma[i], mb[i])
		any = any || ma[i]
	}
	if !any {
		return EmptyRegion()
	}
	return g.traceBoundary(ma)
}
