package geo

import (
	"math"
	"runtime"
	"sync"
)

// The active-edge-table scanline engine behind Grid's region fills.
//
// The naive rasterizer (scanRow, retained as the reference implementation
// for the equivalence property test) walks every edge of every ring for
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
	dir    int8 // winding direction: +1 upward (ay < by), -1 downward
}

// EdgeTable holds a region's edges bucketed by starting grid row, ready
// for one or more scanline sweeps over rows [y0, y1] of a grid. Buckets
// use a CSR layout (starts/items) rather than a slice per row, so building
// a table costs a handful of allocations no matter how many rows it spans.
// A table is immutable once built; concurrent sweeps over disjoint row
// ranges share it freely (the row-parallel fill path does exactly that).
//
// Tables are drawn from a sync.Pool: a localization rasterizes a hundred-odd
// constraint rings per solver pass, and before pooling those per-fill table
// buffers were the dominant allocation of the whole pipeline. release
// returns a table (and the build scratch it carries) for reuse.
type EdgeTable struct {
	edges  []tableEdge
	starts []int32 // CSR offsets into items, len rows+1
	items  []int32 // edge indices grouped by first eligible row
	y0, y1 int     // inclusive sweep row range

	rowOf []int32 // build scratch: first eligible row per edge
	next  []int32 // build scratch: counting-sort placement cursor
}

var edgeTablePool = sync.Pool{New: func() any { return new(EdgeTable) }}

// release returns the table's buffers to the pool. The caller must not use
// the table afterwards; sweeps (including parallel workers) must be done.
func (t *EdgeTable) release() { edgeTablePool.Put(t) }

// resize32 reslices s to length n, reallocating only when capacity falls
// short. Contents are unspecified.
func resize32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// bucket returns the edges first eligible at row y.
func (t *EdgeTable) bucket(y int) []int32 {
	bi := y - t.y0
	return t.items[t.starts[bi]:t.starts[bi+1]]
}

// newEdgeTable buckets the edges of r for sweeps over grid rows [y0, y1].
// Bucket rows are conservative (an edge may enter its bucket a row early);
// the sweep re-checks the exact crossing predicate every row, so the
// bounds only have to never be late.
func newEdgeTable(r *Region, g *Grid, y0, y1 int) *EdgeTable {
	t := edgeTablePool.Get().(*EdgeTable)
	t.y0, t.y1 = y0, y1
	t.edges = t.edges[:0]
	rowOf := t.rowOf[:0] // first eligible row per edge, relative to y0
	inv := 1 / g.CellKm
	for _, ring := range r.Rings {
		n := len(ring)
		for i := 0; i < n; i++ {
			a := ring[i]
			b := ring[(i+1)%n]
			if a.Y == b.Y {
				continue
			}
			e := tableEdge{ax: a.X, ay: a.Y, bx: b.X, by: b.Y}
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
	t.rowOf = rowOf
	rows := y1 - y0 + 1
	t.starts = resize32(t.starts, rows+1)
	clear(t.starts)
	for _, ri := range rowOf {
		t.starts[ri+1]++
	}
	for i := 1; i <= rows; i++ {
		t.starts[i] += t.starts[i-1]
	}
	// items and next are fully overwritten below, so reused capacity needs
	// no clearing: the counting sort writes every items slot exactly once.
	t.items = resize32(t.items, len(t.edges))
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

// sweep scans rows r0..r1 (a sub-range of the table's [y0, y1]), invoking
// fn(y, x0, x1) for every maximal run of row-y cells whose centres lie
// inside the region. Rows ascend; the active list admits edges from their
// buckets and retires them once the scanline passes their upper end.
func (t *EdgeTable) sweep(g *Grid, r0, r1 int, fn func(y, x0, x1 int)) {
	sc := sweepPool.Get().(*sweepScratch)
	active := sc.active[:0]
	// A sweep starting mid-grid (a parallel worker) must consider edges
	// bucketed at earlier rows that may still span r0; the per-row
	// predicate discards the dead ones on the first iteration.
	active = append(active, t.items[:t.starts[r0-t.y0]]...)
	cross := sc.cross[:0]
	for y := r0; y <= r1; y++ {
		active = append(active, t.bucket(y)...)
		if len(active) == 0 {
			continue
		}
		yc := g.Min.Y + (float64(y)+0.5)*g.CellKm
		cross = cross[:0]
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
			cross = append(cross, crossing{x: e.ax + tt*(e.bx-e.ax), dir: int(e.dir)})
		}
		active = keep
		if len(cross) == 0 {
			continue
		}
		sortCrossings(cross)
		emitSpans(g, cross, y, fn)
	}
	sc.active, sc.cross = active, cross
	sweepPool.Put(sc)
}

// sweepScratch holds one sweep's active list and crossing buffer, pooled so
// the per-fill (and per-parallel-worker) scratch never hits the allocator
// in steady state.
type sweepScratch struct {
	active []int32
	cross  []crossing
}

var sweepPool = sync.Pool{New: func() any {
	return &sweepScratch{active: make([]int32, 0, 32), cross: make([]crossing, 0, 32)}
}}

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
			x0 := int(math.Ceil((openX-g.Min.X)/g.CellKm - 0.5))
			x1 := int(math.Floor((buf[i].x-g.Min.X)/g.CellKm - 0.5))
			if x0 < 0 {
				x0 = 0
			}
			if x1 >= g.W {
				x1 = g.W - 1
			}
			if x0 <= x1 {
				fn(y, x0, x1)
			}
		}
	}
}

// parallelFillMinCells is the bounding-box cell count above which a fill
// partitions its rows across GOMAXPROCS workers. A variable rather than a
// constant so tests can force the parallel path onto small grids.
var parallelFillMinCells = 1 << 17

// forEachSpan rasterizes r over the grid, invoking fn(y, x0, x1) for every
// maximal inside-run of cells. This is the single span visitor behind
// AddRegion, MaskRegion, and RasterizeRegion.
//
// Small fills sweep rows sequentially in ascending order. Above
// parallelFillMinCells bounding-box cells, the row range is partitioned
// into contiguous chunks swept concurrently: every row's spans depend only
// on that row's scanline, and each fn invocation touches only row y, so
// the parallel fill is race-free and bit-identical to the sequential one.
func (g *Grid) forEachSpan(r *Region, fn func(y, x0, x1 int)) {
	if r == nil || len(r.Rings) == 0 {
		return
	}
	min, max, ok := r.BoundingBox()
	if !ok {
		return
	}
	g.forEachSpanIn(r, min, max, fn)
}

// forEachSpanIn is forEachSpan given r's bounding box [min, max].
func (g *Grid) forEachSpanIn(r *Region, min, max Vec2, fn func(y, x0, x1 int)) {
	// A region wholly left or right of the grid emits no span: emitSpans
	// clips to cell centres, which sit half a cell inside the grid edge.
	if max.X < g.Min.X || min.X > g.Min.X+float64(g.W)*g.CellKm {
		return
	}
	y0 := int(math.Floor((min.Y - g.Min.Y) / g.CellKm))
	y1 := int(math.Ceil((max.Y - g.Min.Y) / g.CellKm))
	if y0 < 0 {
		y0 = 0
	}
	if y1 > g.H-1 {
		y1 = g.H - 1
	}
	if y0 > y1 {
		return
	}
	t := newEdgeTable(r, g, y0, y1)
	defer t.release()
	if len(t.edges) == 0 {
		return
	}
	rows := y1 - y0 + 1
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 || rows < 2*workers || rows*g.W < parallelFillMinCells {
		t.sweep(g, y0, y1, fn)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for r0 := y0; r0 <= y1; r0 += chunk {
		r1 := r0 + chunk - 1
		if r1 > y1 {
			r1 = y1
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			t.sweep(g, r0, r1, fn)
		}(r0, r1)
	}
	wg.Wait()
}
