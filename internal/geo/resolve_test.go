package geo

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// dustyFills returns random rectangles on a w×h unit grid with weights from
// a few tenths plus sub-1e-9 dust, prepared as fills. With tower set, one
// fill somewhere among them is a heavy rectangle a few columns wide over a
// band of the rows — the shape of a near landmark's disk, and what lets
// ResolveTop prune the rows outside the band.
func dustyFills(rng *rand.Rand, w, h, rects int, tower bool) []Fill {
	fills := make([]Fill, 0, rects)
	at := -1
	if tower {
		at = rng.IntN(rects)
	}
	for i := 0; i < rects; i++ {
		x0, y0 := rng.IntN(w), rng.IntN(h)
		x1, y1 := x0+rng.IntN(w-x0), y0+rng.IntN(h-y0)
		weight := float64(1+rng.IntN(9))/10 + float64(rng.IntN(6))*1e-10
		if rng.IntN(4) == 0 {
			weight = -weight
		}
		if i == at {
			x1, y1, weight = min(x1, x0+2), min(y1, y0+h/3), 100+weight
		}
		f, ok := PrepareFill(Rect(V2(float64(x0)+0.25, float64(y0)+0.25), V2(float64(x1)+0.75, float64(y1)+0.75)), weight)
		if !ok || f.General() {
			panic("a rectangle is a two-turn ring")
		}
		fills = append(fills, f)
	}
	return fills
}

// poisonedGrid is s's next grid, with what a previous pass might leave in s
// at its worst: every weight s holds NaN and a huge positive value,
// alternating, and its row buffer and mask garbage. ResolveTop promises to
// store every cell it specifies, so nothing of this may show in an answer;
// a Scratch reused across calls also hands a pass the last one's edge tables.
func poisonedGrid(s *Scratch, min, max Vec2, cellKm float64) *Grid {
	g := s.Grid(min, max, cellKm)
	for i, w := 0, g.Weight[:cap(g.Weight)]; i < len(w); i++ {
		w[i] = [2]float64{math.NaN(), 1e300}[i%2]
	}
	for i, r := 0, s.rows[:cap(s.rows)]; i < len(r); i++ {
		r[i] = math.NaN()
	}
	for i, m := 0, s.mask[:cap(s.mask)]; i < len(m); i++ {
		m[i] = true
	}
	return g
}

// specifiedRows is the rows of the field ResolveTop specifies: those of the
// level's box, or all of them after an underflow.
func specifiedRows(g *Grid, top TopLevel) (y0, y1 int) {
	if top.Underflow {
		return 0, g.H - 1
	}
	if top.Best <= 0 || top.Cells == 0 {
		return 0, -1
	}
	return top.Box.Y0, top.Box.Y1
}

// TestResolveTopMatchesSeparatePasses: the fused kernel, on a poisoned grid,
// against the retained building blocks — FlushAdds on a zeroed one, a mask
// applied cell by cell, LevelSets and the level walk — on random dusty
// grids, with and without a mask, over thresholds that end the walk at the
// top, in the middle and past the last level. The walk must agree exactly.
// On the rows of its box (every row after an underflow) the field must agree
// bit for bit in every cell within levelSlack of the level or above it, and
// may otherwise hold the 0 of a pruned row; the other rows are unspecified
// and must be ones the reference holds nothing of the level on.
func TestResolveTopMatchesSeparatePasses(t *testing.T) {
	const excluded = -math.MaxFloat64
	underflows, pruned := 0, 0
	var s Scratch
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 11))
		w, h, rects := 1+rng.IntN(40), 1+rng.IntN(40), 1+rng.IntN(200)
		minArea := float64(1 + rng.IntN(w*h+20))
		tower := seed%2 == 1
		if tower && seed%4 == 1 {
			minArea = float64(1 + int(minArea)%8) // often within the tower's cells
		}
		var land *MaskLattice
		var cells []bool // land's cells, drawn one by one
		if seed%3 != 0 {
			// Same cell size, arbitrary offset: every grid cell centre
			// falls in some lattice cell or off the lattice.
			land = &MaskLattice{MinX: rng.Float64()*6 - 3, MinY: rng.Float64()*6 - 3, W: 4 + rng.IntN(40), H: 4 + rng.IntN(40)}
			cells = make([]bool, land.W*land.H)
			for i := range cells {
				cells[i] = rng.IntN(5) != 0
			}
			setRuns(land, cells)
		}

		fills := dustyFills(rand.New(rand.NewPCG(seed, 12)), w, h, rects, tower)
		fused := poisonedGrid(&s, V2(0, 0), V2(float64(w), float64(h)), 1)
		got := fused.ResolveTop(fills, land, excluded, minArea)

		ref := NewGrid(V2(0, 0), V2(float64(w), float64(h)), 1)
		for _, f := range fills {
			ref.AddRegionBatched(f.Region, f.Weight)
		}
		ref.FlushAdds()
		unmasked := slices.Clone(ref.Weight)
		if land != nil {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					c := ref.CellCenter(x, y)
					mx, my := int(math.Floor(c.X-land.MinX)), int(math.Floor(c.Y-land.MinY))
					if mx < 0 || my < 0 || mx >= land.W || my >= land.H || !cells[my*land.W+mx] {
						ref.Weight[y*w+x] = excluded
					}
				}
			}
			checkMaskOff(t, unmasked, ref, land, excluded)
		}
		want := ref.censusTop(minArea)
		y0, y1 := specifiedRows(fused, got)
		for i, rw := range ref.Weight {
			if y := i / w; y < y0 || y > y1 {
				if want.Best > 0 && quantizeWeight(rw) >= want.Level {
					t.Fatalf("seed %d: cell (%d, %d) holds %v of level %v outside the box's rows %d–%d", seed, i%w, y, rw, want.Level, y0, y1)
				}
				continue
			}
			fw := fused.Weight[i]
			if math.Float64bits(fw) != math.Float64bits(rw) && (fw != 0 || rw >= want.Level-levelSlack) {
				t.Fatalf("seed %d: cell (%d, %d) resolved to %v, reference %v, level %v", seed, i%w, i/w, fw, rw, want.Level)
			}
		}
		if got.Rows < h {
			pruned++
		}
		want.Rows = got.Rows
		if got.Underflow {
			underflows++
			got.Underflow = false
		}
		if got.Best <= 0 && want.Best <= 0 {
			continue // nothing positive: the value of Best is unspecified
		}
		if got.Cells == 0 {
			got.Box, want.Box = CellBox{}, CellBox{} // both empty, spelled differently
		}
		if got != want {
			t.Fatalf("seed %d: fused walk %+v, census walk %+v", seed, got, want)
		}
		if !reflect.DeepEqual(fused.ThresholdIn(got.Level, got.Box).Rings, ref.Threshold(want.Level).Rings) {
			t.Fatalf("seed %d: windowed trace differs from the whole-grid trace", seed)
		}
	}
	if underflows == 0 || underflows > 200 {
		t.Errorf("%d of 300 grids underflowed: the suite should exercise both the table and the fallback", underflows)
	}
	if pruned < 50 {
		t.Errorf("%d of 300 grids had a row pruned: the suite should exercise the second sweep's bound", pruned)
	}
}

// FuzzResolveTop holds the fused kernel to the separate passes on a unit grid
// decoded from the input. Bytes, in order: width, height, threshold; mask
// (none when 0 mod 3, else six more: the lattice's x origin in quarter cells,
// a nudge of it by whole steps of 2⁻⁵², its y origin in quarter cells, its
// width, its height, a seed for its cells); tower (0: none); then six per
// rectangle: x0, y0, width, height, weight (tenths, negative from 128) and
// dust (−8e-10 … +7e-10 on the weight). The seed corpus is
// testdata/fuzz/FuzzResolveTop.
func FuzzResolveTop(f *testing.F) {
	var s Scratch // reused across inputs, poisoned before each
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		w, h := 1+next()%40, 1+next()%40
		minArea := float64(1 + next()%(w*h+20))
		var land *MaskLattice
		var cells []bool
		if next()%3 != 0 {
			land = &MaskLattice{
				MinX: float64(next()%32-16)/4 + float64(next()%5-2)*0x1p-52,
				MinY: float64(next()%32-16) / 4,
				W:    1 + next()%40,
				H:    1 + next()%40,
			}
			rng := rand.New(rand.NewPCG(uint64(next()), 13))
			cells = make([]bool, land.W*land.H)
			for i := range cells {
				cells[i] = rng.IntN(5) != 0
			}
			setRuns(land, cells)
		}
		var fills []Fill
		rect := func(x0, y0, x1, y1 int, weight float64) {
			fill, ok := PrepareFill(Rect(V2(float64(x0)+0.25, float64(y0)+0.25), V2(float64(x1)+0.75, float64(y1)+0.75)), weight)
			if !ok {
				t.Fatal("a rectangle prepares")
			}
			fills = append(fills, fill)
		}
		if tb := next(); tb != 0 {
			x0, y0 := tb%w, (tb>>3)%h
			rect(x0, y0, min(x0+tb>>6, w-1), min(y0+h/3, h-1), 100+float64(tb%8)*1e-10)
		}
		for len(data) >= 6 && len(fills) < 400 {
			x0, y0 := next()%w, next()%h
			x1, y1 := x0+next()%(w-x0), y0+next()%(h-y0)
			wb, dust := next(), next()
			weight := float64(1+wb%10)/10 + float64(dust%16-8)*1e-10
			if wb >= 128 {
				weight = -weight
			}
			rect(x0, y0, x1, y1, weight)
		}
		checkResolveTop(t, &s, fills, w, h, land, cells, minArea)
	})
}

// setRuns stores cells, land's W × H raster row by row, as land's runs.
func setRuns(land *MaskLattice, cells []bool) {
	land.Rows, land.Spans = make([]int32, 1, land.H+1), nil
	for my := 0; my < land.H; my++ {
		row := cells[my*land.W : (my+1)*land.W]
		for x := 0; x < len(row); x++ {
			if !row[x] {
				continue
			}
			x0 := x
			for x < len(row) && row[x] {
				x++
			}
			land.Spans = append(land.Spans, [2]int32{int32(x0), int32(x)})
		}
		land.Rows = append(land.Rows, int32(len(land.Spans)))
	}
}

// checkMaskOff holds MaskOff on the unmasked field to the reference's mask
// pass, cell by cell, bit for bit.
func checkMaskOff(t *testing.T, unmasked []float64, ref *Grid, land *MaskLattice, excluded float64) {
	t.Helper()
	g := &Grid{Min: ref.Min, CellKm: ref.CellKm, W: ref.W, H: ref.H, Weight: unmasked}
	g.MaskOff(land, excluded)
	for i, w := range g.Weight {
		if math.Float64bits(w) != math.Float64bits(ref.Weight[i]) {
			t.Fatalf("MaskOff: cell (%d, %d) holds %v, the cell-by-cell pass %v", i%g.W, i/g.W, w, ref.Weight[i])
		}
	}
}

// checkResolveTop runs ResolveTop on a poisoned w×h unit grid and holds it
// to the separate passes: FlushAdds on a zeroed grid, the land mask (cells,
// land's raster) applied cell by cell with the retained application's
// arithmetic, and the census
// walk. Best, Level, Cells, Box and Depth must agree exactly, and so must
// the field on the box's rows as TestResolveTopMatchesSeparatePasses reads
// it. Underflow may only be what a table without the running floor or the
// row pruning, fed every run of the reference, reports — or false.
func checkResolveTop(t *testing.T, s *Scratch, fills []Fill, w, h int, land *MaskLattice, cells []bool, minArea float64) {
	t.Helper()
	const excluded = -math.MaxFloat64
	fused := poisonedGrid(s, V2(0, 0), V2(float64(w), float64(h)), 1)
	got := fused.ResolveTop(fills, land, excluded, minArea)

	ref := NewGrid(V2(0, 0), V2(float64(w), float64(h)), 1)
	for _, f := range fills {
		ref.AddRegionBatched(f.Region, f.Weight)
	}
	ref.FlushAdds()
	unmasked := slices.Clone(ref.Weight)
	if land != nil {
		invCell := 1 / ref.CellKm
		fx := (ref.Min.X - land.MinX + 0.5*ref.CellKm) * invCell
		for y := 0; y < h; y++ {
			my := int(math.Floor((ref.rowCentre(y) - land.MinY) * invCell))
			for x := 0; x < w; x++ {
				mx := int(math.Floor(fx + float64(x)))
				if my < 0 || my >= land.H || mx < 0 || mx >= land.W || !cells[my*land.W+mx] {
					ref.Weight[y*w+x] = excluded
				}
			}
		}
		checkMaskOff(t, unmasked, ref, land, excluded)
	}
	want := ref.censusTop(minArea)

	plain := topTable{floor: math.SmallestNonzeroFloat64}
	for y := 0; y < h; y++ {
		row := ref.Weight[y*w : (y+1)*w]
		for x0 := 0; x0 < w; {
			x1 := x0
			for x1+1 < w && row[x1+1] == row[x0] {
				x1++
			}
			plain.fold(row[x0], y, x0, x1)
			x0 = x1 + 1
		}
	}
	if _, ok := plain.walk(1, minArea); ok && got.Underflow {
		t.Fatalf("underflowed where the plain table vouches for its walk: %+v", got)
	}

	y0, y1 := specifiedRows(fused, got)
	for i, rw := range ref.Weight {
		if y := i / w; y < y0 || y > y1 {
			if want.Best > 0 && quantizeWeight(rw) >= want.Level {
				t.Fatalf("cell (%d, %d) holds %v of level %v outside the box's rows %d–%d", i%w, y, rw, want.Level, y0, y1)
			}
			continue
		}
		if fw := fused.Weight[i]; math.Float64bits(fw) != math.Float64bits(rw) && (fw != 0 || rw >= want.Level-levelSlack) {
			t.Fatalf("cell (%d, %d) resolved to %v, reference %v, level %v", i%w, i/w, fw, rw, want.Level)
		}
	}
	want.Rows, want.Underflow = got.Rows, got.Underflow
	if got.Best <= 0 && want.Best <= 0 {
		return // nothing positive: the value of Best is unspecified
	}
	if got.Cells == 0 {
		got.Box, want.Box = CellBox{}, CellBox{} // both empty, spelled differently
	}
	if got != want {
		t.Fatalf("fused walk %+v, census walk %+v", got, want)
	}
	if !reflect.DeepEqual(fused.ThresholdIn(got.Level, got.Box).Rings, ref.Threshold(want.Level).Rings) {
		t.Fatal("windowed trace differs from the whole-grid trace")
	}
}

// TestTopTableTrust: the table may only answer for levels no dropped value
// can reach or name.
func TestTopTableTrust(t *testing.T) {
	tbl := topTable{floor: math.SmallestNonzeroFloat64}
	feed := func(v float64, y int) { tbl.fold(v, y, y, y) }
	// topK+4 distinct values ascending: every insertion past topK evicts
	// the smallest.
	val := func(i int) float64 { return 1 + float64(i)*0.01 }
	for i := 0; i < topK+4; i++ {
		feed(val(i), i)
	}
	feed(0.5, 200)  // refused: below the floor of a full table
	feed(-3.0, 201) // non-positive values never count as dropped
	if tbl.n != topK || tbl.floor != val(4) || tbl.dropMax != val(3) {
		t.Fatalf("n %d floor %v dropMax %v, want %d 1.04 1.03", tbl.n, tbl.floor, tbl.dropMax, topK)
	}
	top, ok := tbl.walk(1, 10)
	if !ok || top.Depth != 9 || top.Cells != 10 || top.Level != quantizeWeight(val(topK-6)) {
		t.Errorf("10-cell walk: %+v ok %v", top, ok)
	}
	if top.Box != (CellBox{X0: topK - 6, Y0: topK - 6, X1: topK + 3, Y1: topK + 3}) {
		t.Errorf("10-cell walk box %+v", top.Box)
	}
	if _, ok := tbl.walk(1, topK); !ok {
		t.Error("a walk ending on the last tracked level, which is above the dropped one, should be answered")
	}
	if _, ok := tbl.walk(1, topK+1); ok {
		t.Error("a walk past the last tracked level with values dropped must underflow")
	}
	// A dropped value within quantization of the lowest tracked level
	// makes that level untrustworthy: the dropped cell may name it too.
	tbl.dropMax = val(4) - 2e-10
	if _, ok := tbl.walk(1, topK); ok {
		t.Error("lowest level shares its quantum with a dropped value: must underflow")
	}
	if _, ok := tbl.walk(1, topK-1); !ok {
		t.Error("the level above it is still safe")
	}
}

// TestBoxBoundsMatchesTracedRegion: the bounding box the coarse pass hands
// the fine one is the traced region's, bit for bit, at awkward origins.
func TestBoxBoundsMatchesTracedRegion(t *testing.T) {
	g := NewGrid(V2(-1234.567, 0.1+0.2), V2(-1000, 333.3), 64.0/3)
	for _, c := range [][2]int{{0, 0}, {3, 7}, {5, 2}, {g.W - 1, g.H - 1}} {
		g.Weight[c[1]*g.W+c[0]] = 1
	}
	box := g.FullBox()
	wmin, wmax, _ := g.Threshold(1).BoundingBox()
	if gmin, gmax := g.BoxBounds(box); gmin != wmin || gmax != wmax {
		t.Errorf("full box [%v %v], region [%v %v]", gmin, gmax, wmin, wmax)
	}
	g.Weight[0], g.Weight[len(g.Weight)-1] = 0, 0
	box = CellBox{X0: 3, Y0: 2, X1: 5, Y1: 7}
	wmin, wmax, _ = g.Threshold(1).BoundingBox()
	if gmin, gmax := g.BoxBounds(box); gmin != wmin || gmax != wmax {
		t.Errorf("inner box [%v %v], region [%v %v]", gmin, gmax, wmin, wmax)
	}
}
