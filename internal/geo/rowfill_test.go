package geo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The row kernel (Fill, Grid.ResolveTop) against the naive reference
// (scanRow via rowSpans), cell for cell, on both of its routes.

// resolveOne resolves f alone, with weight 1, on a poisoned grid of s and
// returns the field: how many spans cover each cell (spans of one row can
// share an end cell where the ring touches itself on a cell centre). The
// threshold no walk can reach takes the level down to 1 and its box around
// every covered cell; the rows outside the box are unspecified and come back
// as 0, which is what the naive count must hold there.
func resolveOne(s *Scratch, min, max Vec2, cell float64, f *Fill) (*Grid, []float64) {
	g := poisonedGrid(s, min, max, cell)
	f.Weight = 1
	top := g.ResolveTop([]Fill{*f}, nil, 0, math.Inf(1))
	y0, y1 := specifiedRows(g, top)
	clear(g.Weight[:y0*g.W])
	clear(g.Weight[(y1+1)*g.W:])
	return g, g.Weight
}

// naiveSpanCount is the same field from the naive reference: scanRow's
// spans, added cell by cell.
func naiveSpanCount(g *Grid, r *Region) []float64 {
	count := make([]float64, g.W*g.H)
	var buf []crossing
	for y := 0; y < g.H; y++ {
		row := count[y*g.W : (y+1)*g.W]
		buf = g.rowSpans(r, y, buf, func(x0, x1 int) {
			for x := x0; x <= x1; x++ {
				row[x]++
			}
		})
	}
	return count
}

// twoCrossingsEverywhere is the two-turn rule by brute force: between any
// two neighbouring vertex heights a scanline crosses exactly two edges of
// the ring. Which edges a scanline crosses cannot change within such a
// half-open interval, so its lower end stands for all of it.
func twoCrossingsEverywhere(ring Ring) bool {
	ys := make([]float64, 0, len(ring))
	for _, v := range ring {
		ys = append(ys, v.Y)
	}
	sort.Float64s(ys)
	for i := 1; i < len(ys); i++ {
		if ys[i] != ys[i-1] && len(scanRow(&Region{Rings: []Ring{ring}}, ys[i-1], nil)) != 2 {
			return false
		}
	}
	return ys[0] != ys[len(ys)-1]
}

func bounded(r *Region) bool {
	min, max, _ := r.BoundingBox()
	return min.X >= -maxChainCoord && min.Y >= -maxChainCoord && max.X <= maxChainCoord && max.Y <= maxChainCoord
}

// checkRowFill prepares r once and holds the kernel against the naive
// rasterizer on two grids in turn (a solve's coarse and fine pass share
// their fills), on the route PrepareFill chose and, for a two-turn ring,
// on the edge-table route as well. It reports the route chosen.
func checkRowFill(t testing.TB, name string, r *Region, grids [2][3]float64) (general, ok bool) {
	t.Helper()
	f, ok := PrepareFill(r, 1)
	if ok == r.IsEmpty() {
		t.Fatalf("%s: PrepareFill ok=%v, IsEmpty=%v", name, ok, r.IsEmpty())
	}
	if !ok {
		return false, false
	}
	if min, max, _ := r.BoundingBox(); f.Min != min || f.Max != max {
		t.Fatalf("%s: fill box [%v %v], region's [%v %v]", name, f.Min, f.Max, min, max)
	}
	if want := len(r.Rings) != 1 || !bounded(r) || !twoCrossingsEverywhere(r.Rings[0]); f.General() != want {
		t.Fatalf("%s: General()=%v, brute-force two-turn rule says %v (%v)", name, f.General(), want, r.Rings)
	}
	forced := f
	forced.down = -1
	var s Scratch
	for _, gd := range grids {
		min, max, cell := V2(gd[0], gd[1]), V2(gd[0]+16, gd[1]+16), gd[2]
		for _, route := range []*Fill{&f, &forced} {
			g, got := resolveOne(&s, min, max, cell, route)
			want := naiveSpanCount(g, r)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: grid %v general=%v: cell (%d,%d) kernel=%v naive=%v (rings %v)",
						name, gd, route.General(), i%g.W, i/g.W, got[i], want[i], r.Rings)
				}
			}
		}
	}
	return f.General(), true
}

var rowFillGrids = [2][3]float64{{-8, -8, 1}, {-3.3, -5.1, 0.37}}

// monotoneRing builds a random y-monotone ring — two chains between a
// bottom and a top vertex with random x, so they may cross — salted with
// what the cursors must step over: horizontal runs, repeated vertices,
// vertices on cell-centre rows, a random start vertex.
func monotoneRing(rng *rand.Rand) Ring {
	chain := func(n int, lo, hi float64) []float64 {
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = lo + rng.Float64()*(hi-lo)
			if rng.Intn(3) == 0 {
				ys[i] = math.Round(ys[i]*2) / 2
			}
		}
		sort.Float64s(ys)
		return ys
	}
	lo, hi := -14+rng.Float64()*10, 2+rng.Float64()*12
	cx, spread := rng.Float64()*10-5, 1+rng.Float64()*9
	x := func() float64 { return cx + (rng.Float64()*2-1)*spread }
	ring := Ring{{x(), lo}}
	add := func(v Vec2) {
		ring = append(ring, v)
		switch rng.Intn(6) {
		case 0:
			ring = append(ring, v) // repeated vertex
		case 1:
			ring = append(ring, Vec2{x(), v.Y}, Vec2{x(), v.Y}) // horizontal run, back and forth
		}
	}
	for _, y := range chain(1+rng.Intn(12), lo, hi) {
		add(Vec2{x(), y})
	}
	add(Vec2{x(), hi})
	down := chain(1+rng.Intn(12), lo, hi)
	for i := len(down) - 1; i >= 0; i-- {
		add(Vec2{x(), down[i]})
	}
	k := rng.Intn(len(ring))
	return append(append(Ring{}, ring[k:]...), ring[:k]...)
}

// TestRowFillMatchesNaive: the property test. Random monotone rings (which
// must take the two-cursor route), the same rings with one vertex moved
// just far enough to add a turn (which must not), and the adversarial
// multi-ring regions of the edge-table suite.
func TestRowFillMatchesNaive(t *testing.T) {
	var mono, general int
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r *Region
		switch seed % 4 {
		case 0, 1:
			r = &Region{Rings: []Ring{monotoneRing(rng)}}
		case 2:
			// Barely non-monotone: lift one vertex of a disk above its
			// upward neighbour by a hair.
			ring := Disk(V2(rng.Float64()*8-4, rng.Float64()*8-4), 3+rng.Float64()*9, 8+rng.Intn(90)).Rings[0]
			i := rng.Intn(len(ring))
			j := (i + 1) % len(ring)
			if ring[i].Y > ring[j].Y {
				i, j = j, i
			}
			ring[i].Y = math.Nextafter(ring[j].Y, math.Inf(1))
			r = &Region{Rings: []Ring{ring}}
		default:
			r = randomRegion(rng)
		}
		if len(r.Rings) == 1 && r.Rings[0].SignedArea() < 0 {
			reverseRing(r.Rings[0]) // the solver drops clockwise rings; keep the case
		}
		g, ok := checkRowFill(t, fmt.Sprintf("seed %d", seed), r, rowFillGrids)
		if !ok {
			continue
		}
		if g {
			general++
		} else {
			mono++
		}
		if seed%4 < 2 && g {
			t.Errorf("seed %d: a monotone ring took the edge-table route", seed)
		}
	}
	if mono < 150 || general < 100 {
		t.Errorf("%d two-cursor and %d edge-table regions: the suite should exercise both", mono, general)
	}
}

// TestTwoTurnRule: hand-made rings on each side of the rule.
func TestTwoTurnRule(t *testing.T) {
	disk := Disk(V2(0.3, -0.2), 6.5, 96).Rings[0]
	dented := disk.Clone()
	dented[10].Y = dented[12].Y // 9→10 rises past 11, 10→11 falls, 11→12 rises again
	huge := Ring{{0, 0}, {1e200, 0}, {1e200, 4}, {0, 4}}
	cases := []struct {
		name    string
		ring    Ring
		general bool
	}{
		{"triangle", Ring{{0, 0}, {4, 1}, {1, 5}}, false},
		{"rect", Rect(V2(-2, -3), V2(5, 4)).Rings[0], false},
		{"rect, repeated vertices and split sides", Ring{{0, 0}, {2, 0}, {2, 0}, {4, 0}, {4, 1}, {4, 1}, {4, 4}, {1, 4}, {0, 4}, {0, 2}}, false},
		{"horizontal spike", Ring{{0, 0}, {4, 0}, {4, 2}, {6, 2}, {4, 2}, {4, 4}, {0, 4}}, false},
		{"vertical spike at the top turn", Ring{{0, 0}, {4, 0}, {4, 5}, {4, 4}, {0, 4}}, false},
		{"bow-tie, chains cross", Ring{{0, 0}, {6, 0}, {0, 6}, {4, 6}}, false},
		{"disk", disk, false},
		{"vertical spike mid-chain", Ring{{0, 0}, {4, 0}, {4, 2}, {4, 3}, {4, 2}, {4, 4}, {0, 4}}, true},
		{"W", Ring{{0, 4}, {0, 0}, {2, 3}, {4, 0}, {4, 4}}, true},
		{"dented disk", dented, true},
		{"beyond the coordinate bound", huge, true},
		{"infinite", Ring{{0, 0}, {math.Inf(1), 0}, {4, 4}, {0, 4}}, true},
	}
	for _, tc := range cases {
		// Every rotation of the ring: the chains may start anywhere.
		for k := range tc.ring {
			ring := append(append(Ring{}, tc.ring[k:]...), tc.ring[:k]...)
			r := &Region{Rings: []Ring{ring}}
			name := fmt.Sprintf("%s/rot-%d", tc.name, k)
			if math.IsInf(ring.SignedArea(), 0) || math.IsNaN(ring.SignedArea()) || !bounded(r) {
				// No reference to hold it to; only the route matters.
				if f, ok := PrepareFill(r, 1); ok && !f.General() {
					t.Errorf("%s: took the two-cursor route", name)
				}
				continue
			}
			if general, ok := checkRowFill(t, name, r, rowFillGrids); !ok || general != tc.general {
				t.Errorf("%s: prepared %v, general %v, want %v", name, ok, general, tc.general)
			}
		}
	}
	// A region of two rings is general whatever the rings are.
	if general, ok := checkRowFill(t, "two disks", &Region{Rings: []Ring{disk, Disk(V2(20, 0), 3, 16).Rings[0]}}, rowFillGrids); !ok || !general {
		t.Errorf("two disks: prepared %v, general %v", ok, general)
	}
}

// TestResolveTopKeepsFillOrder: the order-preservation trap. Float addition
// does not associate — (0.1 + 1e16) − 1e16 is 0, 0.1 + (1e16 − 1e16) is 0.1
// — so the row-major resolve matches the region-major fills only if every
// difference entry still receives its additions in fill order, across both
// routes (the middle region has two rings and goes through the edge table).
func TestResolveTopKeepsFillOrder(t *testing.T) {
	// Rectangles of one width: their spans open and close on the same
	// difference entries, which is where the order of additions shows.
	band := func(y0, y1 float64) *Region { return Rect(V2(-5.2, y0), V2(5.3, y1)) }
	two := &Region{Rings: []Ring{band(-8, -1).Rings[0], band(1, 8).Rings[0]}}
	regions := []*Region{band(-5, 5), two, band(-6, 6)}
	// field is the weights and the rows of them that are specified: every
	// row of the whole-grid form; of the row-major one, on a poisoned grid
	// and walked down to the lowest positive level, the rows of its box.
	type rows struct {
		w      []float64
		y0, y1 int
	}
	field := func(weights []float64, order []int, rowMajor bool) rows {
		g := NewGrid(V2(-12, -12), V2(12, 12), 0.5)
		if rowMajor {
			g = poisonedGrid(new(Scratch), V2(-12, -12), V2(12, 12), 0.5)
		}
		var fills []Fill
		for _, i := range order {
			f, ok := PrepareFill(regions[i], weights[i])
			if !ok || f.General() != (i == 1) {
				t.Fatalf("region %d: prepared %v, general %v", i, ok, f.General())
			}
			fills = append(fills, f)
			if !rowMajor {
				g.AddRegionBatched(regions[i], weights[i])
			}
		}
		if rowMajor {
			y0, y1 := specifiedRows(g, g.ResolveTop(fills, nil, 0, math.Inf(1)))
			return rows{g.Weight, y0, y1}
		}
		g.FlushAdds()
		return rows{g.Weight, 0, g.H - 1}
	}
	// same compares the rows specified on both sides; the bands where the
	// order of additions shows lie between the outermost positive cells.
	same := func(a, b rows) bool {
		w := len(a.w) / 48
		y0, y1 := max(a.y0, b.y0), min(a.y1, b.y1)
		if y1-y0 < 30 {
			t.Fatalf("only rows %d–%d specified on both sides", y0, y1)
		}
		for i := y0 * w; i < (y1+1)*w; i++ {
			if math.Float64bits(a.w[i]) != math.Float64bits(b.w[i]) {
				return false
			}
		}
		return true
	}
	weights := []float64{0.1, 1e16, -1e16}
	for _, order := range [][]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {1, 0, 2}} {
		if !same(field(weights, order, true), field(weights, order, false)) {
			t.Errorf("order %v: row-major resolve differs from AddRegionBatched+FlushAdds", order)
		}
	}
	if same(field(weights, []int{0, 1, 2}, false), field(weights, []int{1, 2, 0}, false)) {
		t.Error("the trap is not set: these weights resolve alike in either order")
	}
}

// fuzzRegion decodes rings on an eighth-of-a-unit lattice over [-16, 16)²
// around the 16×16 grids the check uses: vertices land on, beside, across
// and beyond the grid and on its cell-centre rows; equal heights, repeated
// vertices and spikes are a byte apart. 0xFF where a vertex would start
// closes the ring.
func fuzzRegion(data []byte) *Region {
	var rings []Ring
	var ring Ring
	n := 0
	for len(data) > 0 && n < 96 && len(rings) < 4 {
		if data[0] == 0xFF {
			data = data[1:]
			if len(ring) > 0 {
				rings, ring = append(rings, ring), nil
			}
			continue
		}
		if len(data) < 2 {
			break
		}
		ring = append(ring, Vec2{(float64(data[0]) - 128) / 8, (float64(data[1]) - 128) / 8})
		data = data[2:]
		n++
	}
	if len(ring) > 0 {
		rings = append(rings, ring)
	}
	return &Region{Rings: rings}
}

// FuzzRowFill pushes fuzzed rings through the row kernel, on both routes,
// and through the naive reference. The first three bytes pick the second
// grid's origin and cell size; the rest is fuzzRegion's. The seed corpus is
// testdata/fuzz/FuzzRowFill.
func FuzzRowFill(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		grids := rowFillGrids
		grids[1] = [3]float64{-8 + float64(int8(data[0]))/16, -8 + float64(int8(data[1]))/16,
			[]float64{1, 0.5, 0.25, 0.75, 1.3, 0.37}[data[2]%6]}
		r := fuzzRegion(data[3:])
		if len(r.Rings) == 1 && r.Rings[0].SignedArea() < 0 {
			reverseRing(r.Rings[0])
		}
		checkRowFill(t, "fuzz", r, grids)
	})
}

// TestWholeRowShortcut sets the traps of addRow's whole-row shortcut, on both
// of the suite's grids: rings whose chain edges sit exactly on the one-cell
// margin, a hair inside and a hair outside it, on either side; a disk that
// covers the grid in every row; the ascending chain on the right (any
// counter-clockwise ring) and on the left (the upper lobe of a bow-tie); a
// ring that spans some rows and not others; and a ring that clears the margin
// but reaches so far out that its crossing rounds back into the grid. Each is
// held to the naive scanRow cell for cell on both routes, and a mid-height
// row is asked whether it took the shortcut.
func TestWholeRowShortcut(t *testing.T) {
	for _, gd := range rowFillGrids {
		g := NewGrid(V2(gd[0], gd[1]), V2(gd[0]+16, gd[1]+16), gd[2])
		left, right := g.Min.X-g.CellKm, g.Min.X+float64(g.W+1)*g.CellKm
		in := math.Nextafter                   // in(x, towards): a hair off x
		hexagon := func(xl, xr float64) Ring { // upright sides at xl and xr over the grid's rows
			return Ring{{xl, -12}, {xr, -12}, {xr, 14}, {(xl + xr) / 2, 15}, {xl, 14}}
		}
		slanted := func(xl, xr float64) Ring { // sides that lean away from the grid, nearest at one end
			return Ring{{xl, -12}, {xr, -12}, {xr + 7, 14}, {xl - 5, 14}}
		}
		bowtie := Ring{{-100, -100}, {100, -100}, {left - 11, -13}, {left - 21, 12}, {right + 21, 12}, {right + 11, -13}}
		cases := []struct {
			name  string
			ring  Ring
			whole bool // the row through y = 0.4 is filled by the shortcut
		}{
			{"on the margin", hexagon(left, right), true},
			{"a hair outside the margin", hexagon(in(left, -1e9), in(right, 1e9)), true},
			{"left side a hair inside", hexagon(in(left, 1e9), right), false},
			{"right side a hair inside", hexagon(left, in(right, -1e9)), false},
			{"slanted, on the margin", slanted(left, right), true},
			{"slanted, left a hair inside", slanted(in(left, 1e9), right), false},
			{"slanted, right a hair inside", slanted(left, in(right, -1e9)), false},
			{"disk over the grid", Disk(V2(gd[0]+8, gd[1]+8), 40, 96).Rings[0], true},
			{"ascending chain on the left", bowtie, true},
			{"whole rows below, partial above", Ring{{-30, -20}, {30, -20}, {30, gd[1] + 4}, {gd[0] + 9, gd[1] + 12}, {gd[0] + 7, gd[1] + 12}, {-30, gd[1] + 4}}, false},
			{"clear of the margin, too far out", Ring{{-12, -20}, {40, -20}, {40, 30}, {-1e18, 1e18}}, false},
		}
		for _, tc := range cases {
			name := fmt.Sprintf("%s/cell-%v", tc.name, gd[2])
			r := &Region{Rings: []Ring{tc.ring}}
			if general, ok := checkRowFill(t, name, r, [2][3]float64{gd, gd}); !ok || general {
				t.Fatalf("%s: prepared %v, general %v: want a two-cursor fill", name, ok, general)
			}
			f, _ := PrepareFill(r, 1)
			f.begin(g)
			y := int(math.Floor((0.4 - g.Min.Y) / g.CellKm))
			if tc.name == "whole rows below, partial above" {
				y = int(math.Floor((gd[1] + 8 - g.Min.Y) / g.CellKm)) // a partial row; the whole ones are the other cases'
			}
			d := make([]float64, g.W+1)
			f.addRow(g, y, g.rowCentre(y), d)
			if whole := f.asc.side*f.desc.side < 0; whole != tc.whole {
				t.Errorf("%s: row %d took the shortcut: %v, want %v (sides %d, %d)", name, y, whole, tc.whole, f.asc.side, f.desc.side)
			}
			if tc.name == "ascending chain on the left" && !(f.asc.side < 0 && f.desc.side > 0) {
				t.Errorf("%s: sides %d, %d: the ascending chain should be the left one", name, f.asc.side, f.desc.side)
			}
		}
	}
}
