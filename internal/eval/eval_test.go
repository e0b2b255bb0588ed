package eval

import (
	"context"
	"strings"
	"testing"

	"octant/internal/core"
	"octant/internal/stats"
)

func testDeployment(t *testing.T) *Deployment {
	t.Helper()
	d, err := NewDeployment(1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeployment(t *testing.T) {
	d := testDeployment(t)
	if len(d.Landmarks) != 51 {
		t.Fatalf("landmarks = %d, want the paper's 51", len(d.Landmarks))
	}
	if d.Survey.N() != 51 {
		t.Fatalf("survey N = %d", d.Survey.N())
	}
}

func TestFig2(t *testing.T) {
	d := testDeployment(t)
	f, err := d.RunFig2("rochester")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Scatter) != 50 {
		t.Errorf("scatter size %d, want 50 peers", len(f.Scatter))
	}
	// Hull facets bracket the scatter.
	if len(f.UpperFacets) < 2 || len(f.LowerFacets) < 2 {
		t.Errorf("facets too small: %d upper, %d lower", len(f.UpperFacets), len(f.LowerFacets))
	}
	// Percentiles ordered.
	if !(f.Percentiles[50] <= f.Percentiles[75] && f.Percentiles[75] <= f.Percentiles[90]) {
		t.Errorf("percentiles not ordered: %v", f.Percentiles)
	}
	// The speed-of-light line dominates the scatter (physics).
	for _, s := range f.Scatter {
		solAt := 0.0
		for _, p := range f.SpeedOfLite {
			if p[0] >= s.LatencyMs {
				solAt = p[1]
				break
			}
		}
		if solAt > 0 && s.DistanceKm > solAt*1.05 {
			t.Errorf("scatter point (%.1f, %.0f) above speed of light", s.LatencyMs, s.DistanceKm)
		}
	}
	if len(f.Spline) == 0 {
		t.Error("missing spline approximation series")
	}
	txt := f.Format()
	for _, want := range []string{"Figure 2", "convex hull upper facets", "spline", "2/3c"} {
		if !strings.Contains(txt, want) {
			t.Errorf("formatted output missing %q", want)
		}
	}
	if _, err := d.RunFig2("not-a-landmark"); err == nil {
		t.Error("unknown landmark should error")
	}
}

func TestFig3QuickShape(t *testing.T) {
	// Step 5 → 11 targets: fast but statistically meaningful for shape.
	d := testDeployment(t)
	res, err := d.RunFig3(core.Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Targets != 11 {
		t.Fatalf("targets = %d", res.Targets)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]stats.Summary{}
	for _, s := range res.Summaries() {
		byName[s.Name] = s
	}
	// Core paper shape: Octant beats the two latency-based baselines.
	if byName["Octant"].Median >= byName["GeoLim"].Median {
		t.Errorf("Octant median %.1f should beat GeoLim %.1f",
			byName["Octant"].Median, byName["GeoLim"].Median)
	}
	if byName["Octant"].Median >= byName["GeoPing"].Median {
		t.Errorf("Octant median %.1f should beat GeoPing %.1f",
			byName["Octant"].Median, byName["GeoPing"].Median)
	}
	// All errors finite and plausible.
	for _, row := range res.Rows {
		if len(row.Errors) != res.Targets {
			t.Errorf("%s has %d errors", row.Name, len(row.Errors))
		}
		for _, e := range row.Errors {
			if e < 0 || e > 3000 {
				t.Errorf("%s error %v implausible", row.Name, e)
			}
		}
	}
	// CDF formatting.
	cdf := res.FormatCDF()
	if !strings.Contains(cdf, "Octant") || !strings.Contains(cdf, "GeoTrack") {
		t.Errorf("CDF table malformed:\n%s", cdf)
	}
}

// TestFig3FusedParity drives the Figure 3 leave-one-out golden through
// the fused batch solve: each held-out target is its own survey, so each
// is a fused group of one, and every group must reproduce the scalar
// Localize result bit-for-bit — the figure's error series is identical
// whichever path computes it.
func TestFig3FusedParity(t *testing.T) {
	d := testDeployment(t)
	const step = 5
	scalar, err := d.RunFig3(core.Config{}, step)
	if err != nil {
		t.Fatal(err)
	}
	var octErrors []float64
	for _, row := range scalar.Rows {
		if row.Name == "Octant" {
			octErrors = row.Errors
		}
	}
	ctx := context.Background()
	bi := 0
	for ti := 0; ti < len(d.Landmarks); ti += step {
		target := d.Landmarks[ti]
		sub, err := d.leaveOneOut(ti)
		if err != nil {
			t.Fatal(err)
		}
		loc := core.NewLocalizer(d.Prober, sub, core.Config{})
		results, errs := loc.LocalizeBatch(ctx, []string{target.Addr})
		if errs[0] != nil {
			t.Fatalf("fused leave-one-out on %s: %v", target.Name, errs[0])
		}
		if got := results[0].Point.DistanceMiles(target.Loc); got != octErrors[bi] {
			t.Errorf("%s: fused error %.6f mi, scalar golden %.6f mi", target.Name, got, octErrors[bi])
		}
		bi++
	}
}

// TestFig4FusedParity pins the Figure 4 production path: one subset
// survey's full target sweep through LocalizeBatch must be bit-identical
// (point, area, containment) to per-target scalar localization, so the
// batched RunFig4 reproduces the pre-fused golden exactly.
func TestFig4FusedParity(t *testing.T) {
	d := testDeployment(t)
	const k = 20
	lmIdx := make([]int, k)
	for i := range lmIdx {
		lmIdx[i] = i * 2 // deterministic spread of 20 landmark sites
	}
	sub, err := d.Survey.Subset(lmIdx)
	if err != nil {
		t.Fatal(err)
	}
	isLandmark := make(map[int]bool, k)
	for _, i := range lmIdx {
		isLandmark[i] = true
	}
	loc := core.NewLocalizer(d.Prober, sub, core.Config{})
	var targets []core.Landmark
	var addrs []string
	for ti := range d.Landmarks {
		if !isLandmark[ti] {
			targets = append(targets, d.Landmarks[ti])
			addrs = append(addrs, d.Landmarks[ti].Addr)
		}
	}
	results, errs := loc.LocalizeBatch(context.Background(), addrs)
	for i, target := range targets {
		sres, serr := loc.LocalizeContext(context.Background(), target.Addr)
		if (serr == nil) != (errs[i] == nil) {
			t.Fatalf("%s: scalar err %v, fused err %v", target.Name, serr, errs[i])
		}
		if serr != nil {
			continue
		}
		fres := results[i]
		if fres.Point != sres.Point || fres.AreaKm2 != sres.AreaKm2 ||
			fres.ContainsTruth(target.Loc) != sres.ContainsTruth(target.Loc) {
			t.Errorf("%s: fused (%v, %.6f km²) diverges from scalar (%v, %.6f km²)",
				target.Name, fres.Point, fres.AreaKm2, sres.Point, sres.AreaKm2)
		}
	}
}

func TestFig4QuickShape(t *testing.T) {
	d := testDeployment(t)
	pts, err := d.RunFig4(core.Config{}, []int{15, 40}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.OctantPct < 0 || p.OctantPct > 100 || p.GeoLimPct < 0 || p.GeoLimPct > 100 {
			t.Errorf("percentages out of range: %+v", p)
		}
	}
	// The paper's Figure 4 claim: Octant's containment exceeds GeoLim's.
	// Averaged across counts to damp single-trial subset noise.
	var octSum, glSum float64
	for _, p := range pts {
		octSum += p.OctantPct
		glSum += p.GeoLimPct
	}
	if octSum <= glSum {
		t.Errorf("mean Octant containment %.0f%% should beat GeoLim %.0f%%",
			octSum/float64(len(pts)), glSum/float64(len(pts)))
	}
	out := FormatFig4(pts)
	if !strings.Contains(out, "landmarks") {
		t.Errorf("fig4 table malformed:\n%s", out)
	}
}
