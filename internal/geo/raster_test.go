package geo

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestGridAddRegionAndThreshold(t *testing.T) {
	g := NewGrid(V2(-20, -20), V2(20, 20), 0.25)
	d := Disk(V2(0, 0), 10, 128)
	g.AddRegion(d, 1)
	out := g.Threshold(1)
	want := math.Pi * 100
	if got := out.Area(); math.Abs(got-want) > want*0.02 {
		t.Errorf("thresholded disk area %v, want %v", got, want)
	}
	if !out.Contains(V2(0, 0)) || out.Contains(V2(15, 15)) {
		t.Error("thresholded region containment wrong")
	}
}

func TestGridWeightAccumulation(t *testing.T) {
	g := NewGrid(V2(-30, -30), V2(30, 30), 0.5)
	g.AddRegion(Disk(V2(-5, 0), 12, 128), 1)
	g.AddRegion(Disk(V2(5, 0), 12, 128), 1)
	levels, _ := g.LevelSets()
	if len(levels) != 3 || levels[0] != 2 || levels[1] != 1 || levels[2] != 0 {
		t.Fatalf("LevelSets levels = %v, want 2, 1, 0", levels)
	}
	// Weight-2 region is the lens.
	lens := g.Threshold(2)
	want := lensArea(12, 12, 10)
	if got := lens.Area(); math.Abs(got-want) > want*0.05 {
		t.Errorf("lens area %v, want %v", got, want)
	}
	// Weight-1 region is the union.
	union := g.Threshold(1)
	wantU := 2*math.Pi*144 - want
	if got := union.Area(); math.Abs(got-wantU) > wantU*0.05 {
		t.Errorf("union area %v, want %v", got, wantU)
	}
}

func TestGridThresholdHole(t *testing.T) {
	g := NewGrid(V2(-30, -30), V2(30, 30), 0.25)
	g.AddRegion(Annulus(V2(0, 0), 10, 20, 128), 1)
	out := g.Threshold(1)
	if out.Contains(V2(0, 0)) {
		t.Error("annulus hole should survive raster round trip")
	}
	if !out.Contains(V2(15, 0)) {
		t.Error("annulus body missing")
	}
	// Must contain a CW ring (the hole).
	hasHole := false
	for _, ring := range out.Rings {
		if !ring.IsCCW() {
			hasHole = true
		}
	}
	if !hasHole {
		t.Error("expected an explicit hole ring")
	}
}

func TestGridAreaAtOrAbove(t *testing.T) {
	g := NewGrid(V2(0, 0), V2(10, 10), 1)
	g.AddRegion(Rect(V2(0, 0), V2(10, 5)), 1)
	if got := g.AreaAtOrAbove(1); math.Abs(got-50) > 10 {
		t.Errorf("AreaAtOrAbove(1) = %v, want ≈ 50", got)
	}
	if got := g.AreaAtOrAbove(0); math.Abs(got-100) > 1e-9 {
		t.Errorf("AreaAtOrAbove(0) = %v, want 100", got)
	}
}

func TestGridCellCap(t *testing.T) {
	// Requesting an absurd resolution must degrade, not explode.
	g := NewGrid(V2(0, 0), V2(100000, 100000), 0.001)
	if g.W*g.H > 1<<22 {
		t.Errorf("grid exceeded cell cap: %d", g.W*g.H)
	}
}

func TestCellAtCenterInverse(t *testing.T) {
	g := NewGrid(V2(-10, -10), V2(10, 10), 0.5)
	for _, cell := range [][2]int{{0, 0}, {5, 7}, {g.W - 1, g.H - 1}} {
		c := g.CellCenter(cell[0], cell[1])
		x, y := g.CellAt(c)
		if x != cell[0] || y != cell[1] {
			t.Errorf("CellAt(CellCenter(%v)) = (%d,%d)", cell, x, y)
		}
	}
}

func TestTraceBoundaryDiagonalSaddle(t *testing.T) {
	// Two cells touching only at a corner: the saddle case. Tracing must
	// produce two separate rings, not a figure-eight.
	g := NewGrid(V2(0, 0), V2(2, 2), 1)
	inside := []bool{true, false, false, true} // (0,0) and (1,1)
	reg := g.traceBoundary(inside)
	if len(reg.Rings) != 2 {
		t.Fatalf("saddle should trace 2 rings, got %d: %v", len(reg.Rings), reg)
	}
	if math.Abs(reg.Area()-2) > 1e-9 {
		t.Errorf("saddle area %v, want 2", reg.Area())
	}
}

func TestGeoJSONExport(t *testing.T) {
	pr := NewProjection(Pt(40, -95))
	reg := Annulus(V2(0, 0), 50, 150, 64)
	js, err := reg.ToGeoJSON(pr, map[string]any{"name": "test"})
	if err != nil {
		t.Fatal(err)
	}
	s := string(js)
	for _, want := range []string{`"MultiPolygon"`, `"Feature"`, `"name": "test"`} {
		if !strings.Contains(s, want) {
			t.Errorf("GeoJSON missing %s", want)
		}
	}
	if _, err := reg.ToGeoJSON(nil, nil); err == nil {
		t.Error("nil projection should error")
	}
	empty, err := EmptyRegion().ToGeoJSON(pr, nil)
	if err != nil || !strings.Contains(string(empty), `"coordinates": []`) {
		t.Errorf("empty region GeoJSON: %v %s", err, empty)
	}
}

// vkeyLess orders vertices row-major (y, then x).
func vkeyLess(a, b vkey) bool {
	return a.y < b.y || (a.y == b.y && a.x < b.x)
}

// edgesByFrom stable-sorts boundary edges by start vertex. The concrete
// sort.Interface shares the stable-sort template with the sort.SliceStable
// call it replaced, so the edge order — and every ring traced from it —
// is byte-identical, without the per-call closure/swapper allocations.
type edgesByFrom []dirEdge

func (e edgesByFrom) Len() int           { return len(e) }
func (e edgesByFrom) Less(i, j int) bool { return vkeyLess(e[i].from, e[j].from) }
func (e edgesByFrom) Swap(i, j int)      { e[i], e[j] = e[j], e[i] }

// traceWindowReference is the tracer as it ran in production before the
// indexed edge table: boundary edges emitted by a row-major walk over the
// cells (bottom, top, left, right), stable-sorted by start vertex, looked up
// by binary search. Grid.traceWindow must return its rings byte for byte.
func (g *Grid) traceWindowReference(inside []bool, box CellBox) *Region {
	bw, bh := box.X1-box.X0+1, box.Y1-box.Y0+1
	in := func(x, y int) bool {
		if x < 0 || y < 0 || x >= bw || y >= bh {
			return false
		}
		return inside[y*bw+x]
	}
	var edges []dirEdge
	for wy := 0; wy < bh; wy++ {
		for wx := 0; wx < bw; wx++ {
			if !in(wx, wy) {
				continue
			}
			x, y := box.X0+wx, box.Y0+wy
			if !in(wx, wy-1) { // bottom edge, rightward
				edges = append(edges, dirEdge{vkey{int32(x), int32(y)}, vkey{int32(x + 1), int32(y)}})
			}
			if !in(wx, wy+1) { // top edge, leftward
				edges = append(edges, dirEdge{vkey{int32(x + 1), int32(y + 1)}, vkey{int32(x), int32(y + 1)}})
			}
			if !in(wx-1, wy) { // left edge, downward
				edges = append(edges, dirEdge{vkey{int32(x), int32(y + 1)}, vkey{int32(x), int32(y)}})
			}
			if !in(wx+1, wy) { // right edge, upward
				edges = append(edges, dirEdge{vkey{int32(x + 1), int32(y)}, vkey{int32(x + 1), int32(y + 1)}})
			}
		}
	}
	// Stable sort keeps edges sharing a start vertex in emission order, so
	// saddle resolution sees candidates in the same order the adjacency-map
	// representation produced (and ring output stays byte-identical).
	sort.Stable(edgesByFrom(edges))
	// findFrom returns the [i, j) range of edges starting at v.
	findFrom := func(v vkey) (int, int) {
		i := sort.Search(len(edges), func(k int) bool { return !vkeyLess(edges[k].from, v) })
		j := i
		for j < len(edges) && edges[j].from == v {
			j++
		}
		return i, j
	}
	used := make([]bool, len(edges))
	remaining := len(edges)
	cursor := 0 // edges before cursor are all used
	var rings []Ring
	var loop []vkey
	for remaining > 0 {
		for used[cursor] {
			cursor++
		}
		// Sorted order makes edges[cursor].from the smallest keyed vertex
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
				if !used[k] {
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
			used[pick] = true
			remaining--
			loop = append(loop, cur)
			prev = cur
			cur = edges[pick].to
			if cur == start {
				break
			}
		}
		if len(loop) >= 4 {
			var pts Ring
			for _, v := range loop {
				pts = append(pts, Vec2{
					X: g.Min.X + float64(v.x)*g.CellKm,
					Y: g.Min.Y + float64(v.y)*g.CellKm,
				})
			}
			if ring := collapseCollinearReference(pts); len(ring) >= 3 {
				rings = append(rings, ring)
			}
		}
	}
	return &Region{Rings: rings}
}

// collapseCollinearReference is collapseCollinear as it was, a modulo per
// neighbour.
func collapseCollinearReference(ring Ring) Ring {
	n := len(ring)
	if n < 3 {
		return ring.Clone()
	}
	out := make(Ring, 0, n)
	for i := 0; i < n; i++ {
		a := ring[(i+n-1)%n]
		b := ring[i]
		c := ring[(i+1)%n]
		if math.Abs(isLeft(a, c, b)) > 1e-12 {
			out = append(out, b)
		}
	}
	if len(out) < 3 {
		return append(out[:0], ring...)
	}
	return out
}

// traceMask is a box of a grid with a cell mask over it, and which of the
// mask's rows hold a cell.
type traceMask struct {
	g              *Grid
	box            CellBox
	inside, filled []bool
}

// newTraceMask places a bw×bh box at (x0, y0) of a grid a few cells larger,
// at an origin and cell size that make vertex coordinates inexact.
func newTraceMask(bw, bh, x0, y0 int, in func(x, y int) bool) traceMask {
	g := &Grid{Min: V2(-1234.567, 0.1+0.2), CellKm: 64.0 / 3, W: x0 + bw + 2, H: y0 + bh + 2}
	m := traceMask{g: g, box: CellBox{x0, y0, x0 + bw - 1, y0 + bh - 1}, inside: make([]bool, bw*bh), filled: make([]bool, bh)}
	for y := 0; y < bh; y++ {
		for x := 0; x < bw; x++ {
			m.inside[y*bw+x] = in(x, y)
			m.filled[y] = m.filled[y] || m.inside[y*bw+x]
		}
	}
	return m
}

// checkTrace holds the indexed tracer to the reference, told which rows are
// filled and not: same rings, same order, same start vertices, same bytes.
func checkTrace(t testing.TB, name string, m traceMask) {
	t.Helper()
	want := m.g.traceWindowReference(m.inside, m.box)
	for _, filled := range [][]bool{m.filled, nil} {
		if got := m.g.traceWindow(m.inside, m.box, filled); !reflect.DeepEqual(got.Rings, want.Rings) {
			t.Fatalf("%s: box %+v mask %v filled %v:\n traced   %v\n reference %v", name, m.box, m.inside, filled, got.Rings, want.Rings)
		}
	}
}

// TestTraceWindowMatchesReference: the differential over generated masks —
// every shape the tracer's cases are about, then random ones.
func TestTraceWindowMatchesReference(t *testing.T) {
	hash := func(x, y, k int) bool { return (x*73856093^y*19349663^k*83492791)%7 < 3 }
	shapes := []struct {
		name   string
		bw, bh int
		in     func(x, y int) bool
	}{
		{"single cell", 1, 1, func(x, y int) bool { return true }},
		{"single cell in a box", 5, 4, func(x, y int) bool { return x == 2 && y == 1 }},
		{"full box", 9, 6, func(x, y int) bool { return true }},
		{"one row", 11, 1, func(x, y int) bool { return x != 4 }},
		{"one column", 1, 11, func(x, y int) bool { return y != 4 }},
		{"blob", 14, 12, func(x, y int) bool { return (x-6)*(x-6)+(y-5)*(y-5) < 22 }},
		{"two blobs", 16, 9, func(x, y int) bool { return (x-3)*(x-3)+(y-4)*(y-4) < 8 || (x-11)*(x-11)+(y-4)*(y-4) < 12 }},
		{"hole", 9, 9, func(x, y int) bool { return !(x >= 3 && x <= 5 && y >= 3 && y <= 5) }},
		{"island in a hole", 11, 11, func(x, y int) bool { d := max(abs(x-5), abs(y-5)); return d != 2 && d != 4 }},
		{"holes that touch at a corner", 8, 8, func(x, y int) bool { return !(x == 3 && y == 3) && !(x == 4 && y == 4) }},
		{"diagonal saddle", 2, 2, func(x, y int) bool { return x == y }},
		{"anti-diagonal saddle", 2, 2, func(x, y int) bool { return x != y }},
		{"diagonal chain", 7, 7, func(x, y int) bool { return x == y }},
		{"anti-diagonal chain", 7, 7, func(x, y int) bool { return x+y == 6 }},
		{"checkerboard", 8, 7, func(x, y int) bool { return (x+y)%2 == 0 }},
		{"checkerboard, odd phase", 7, 8, func(x, y int) bool { return (x+y)%2 == 1 }},
		{"cells on all four sides", 9, 7, func(x, y int) bool {
			return (x == 0 && y == 3) || (x == 8 && y == 2) || (y == 0 && x == 4) || (y == 6 && x == 5)
		}},
		{"frame on the box sides", 9, 7, func(x, y int) bool { return x == 0 || y == 0 || x == 8 || y == 6 }},
		{"staircase", 10, 10, func(x, y int) bool { return x <= y }},
		{"comb", 13, 6, func(x, y int) bool { return y == 0 || x%2 == 0 }},
		{"empty", 4, 4, func(x, y int) bool { return false }},
	}
	for _, sh := range shapes {
		for _, at := range [][2]int{{0, 0}, {3, 2}} {
			checkTrace(t, sh.name, newTraceMask(sh.bw, sh.bh, at[0], at[1], sh.in))
		}
	}
	for seed := 0; seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(uint64(seed), 24))
		bw, bh, k := 1+rng.IntN(40), 1+rng.IntN(40), rng.IntN(1000)
		in := func(x, y int) bool { return hash(x, y, k) }
		if seed%3 == 0 { // smoother: blobs with noise on their rims
			cx, cy, r := rng.IntN(bw), rng.IntN(bh), 2+rng.IntN(15)
			in = func(x, y int) bool {
				d := (x-cx)*(x-cx) + (y-cy)*(y-cy) - r*r
				return d < -r || (d < r && hash(x, y, k))
			}
		}
		checkTrace(t, "random", newTraceMask(bw, bh, rng.IntN(4), rng.IntN(4), in))
	}
}

func abs(x int) int { return max(x, -x) }

// FuzzTraceWindow decodes a box (width, height, offset) and a bit per cell
// from the input and holds the tracer to the reference. The seed corpus is
// testdata/fuzz/FuzzTraceWindow.
func FuzzTraceWindow(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		bw, bh, at := 1+int(data[0])%32, 1+int(data[1])%32, int(data[2])
		bits := data[3:]
		checkTrace(t, "fuzz", newTraceMask(bw, bh, at%4, at/4%4, func(x, y int) bool {
			i := y*bw + x
			return i/8 < len(bits) && bits[i/8]>>(i%8)&1 == 1
		}))
	})
}

// BenchmarkTraceWindow traces a box the size of a serving answer's (≈ 15 k
// cells): a blob with a ragged rim and a few holes; and, as "sparse", a
// whole 305 × 280 grid's mask holding one 7,900-cell blob.
func BenchmarkTraceWindow(b *testing.B) {
	m := newTraceMask(122, 122, 3, 2, func(x, y int) bool {
		d := (x-60)*(x-60) + (y-64)*(y-64)
		return d < 2500 && !(d > 2000 && (x*7+y*13)%5 == 0) && (x-40)*(x-40)+(y-50)*(y-50) > 30
	})
	sparse := newTraceMask(305, 280, 0, 0, func(x, y int) bool { return (x-200)*(x-200)+(y-90)*(y-90) < 2500 })
	for _, tc := range []struct {
		name string
		m    traceMask
	}{{"", m}, {"sparse/", sparse}} {
		b.Run(tc.name+"indexed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.m.g.traceWindow(tc.m.inside, tc.m.box, tc.m.filled)
			}
		})
		b.Run(tc.name+"reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.m.g.traceWindowReference(tc.m.inside, tc.m.box)
			}
		})
	}
}

// TestLevelFloorIsAtLevel: the one comparison the cell loops make, w >=
// LevelFloor(level), is quantized membership, quantizeWeight(w) >= level, for weights within a
// few quanta of levels across magnitudes, on both sides of every rounding
// boundary.
func TestLevelFloorIsAtLevel(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 0))
	for i := 0; i < 20000; i++ {
		level := quantizeWeight(math.Pow(10, rng.Float64()*8-4) * float64(1-2*(i%2)))
		floor := LevelFloor(level)
		if quantizeWeight(floor) < level || quantizeWeight(math.Nextafter(floor, math.Inf(-1))) >= level {
			t.Fatalf("level %v: floor %v is not the least weight at the level", level, floor)
		}
		for j := 0; j < 8; j++ {
			w := level + (rng.Float64()-0.5)*4e-9
			if got, want := w >= floor, quantizeWeight(w) >= level; got != want {
				t.Fatalf("level %v, weight %v: w >= floor %v, quantized %v", level, w, got, want)
			}
		}
	}
	for _, level := range []float64{math.Inf(-1), math.Inf(1)} {
		if LevelFloor(level) != level {
			t.Errorf("LevelFloor(%v) = %v", level, LevelFloor(level))
		}
	}
}
