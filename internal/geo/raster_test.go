package geo

import (
	"math"
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
