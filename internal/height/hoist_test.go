package height_test

import (
	"math"
	"testing"

	"octant/internal/eval"
	"octant/internal/geo"
	"octant/internal/height"
	"octant/internal/linalg"
)

// referenceSolveTargetK is SolveTargetK as it was before the landmarks'
// radians and cosines were hoisted out of the objective: one full haversine,
// conversions included, per landmark per evaluation.
func referenceSolveTargetK(landmarks []geo.Point, heights, rttMs []float64, kappa float64) height.TargetResult {
	distanceKm := func(p, q geo.Point) float64 {
		rad := func(d float64) float64 { return d * math.Pi / 180 }
		lat1, lon1 := rad(p.Lat), rad(p.Lon)
		lat2, lon2 := rad(q.Lat), rad(q.Lon)
		s1 := math.Sin((lat2 - lat1) / 2)
		s2 := math.Sin((lon2 - lon1) / 2)
		h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
		if h > 1 {
			h = 1
		}
		return 2 * geo.EarthRadiusKm * math.Asin(math.Sqrt(h))
	}
	clamp := func(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }
	wrap := func(lon float64) float64 {
		for lon > 180 {
			lon -= 360
		}
		for lon <= -180 {
			lon += 360
		}
		return lon
	}
	if kappa < 1 {
		kappa = 1
	}
	var wSum, latSum, lonSum float64
	wts := make([]float64, len(landmarks))
	for i, p := range landmarks {
		w := 1 / (1 + rttMs[i])
		wts[i] = w
		latSum += p.Lat * w
		lonSum += p.Lon * w
		wSum += w
	}
	obj := func(v []float64) float64 {
		tPrime := math.Max(v[0], 0)
		t := geo.Pt(clamp(v[1], -89.9, 89.9), wrap(v[2]))
		var ss float64
		for i := range landmarks {
			pred := heights[i] + tPrime + kappa*geo.DistanceToMinLatencyMs(distanceKm(landmarks[i], t))
			d := pred - rttMs[i]
			ss += wts[i] * d * d
		}
		return ss
	}
	best, fv := linalg.NelderMead(obj, []float64{1, latSum / wSum, lonSum / wSum},
		&linalg.NelderMeadOpts{MaxIter: 2000, Step: 2, Tol: 1e-10})
	return height.TargetResult{
		HeightMs: math.Max(0, best[0]),
		Coarse:   geo.Pt(clamp(best[1], -89.9, 89.9), wrap(best[2])),
		Residual: math.Sqrt(fv / wSum),
	}
}

// TestSolveTargetKUnchangedOnFig3World: every leave-one-out target of the
// Figure 3 world, solved from the survey's own measurements. One differing
// bit in one objective value would send the simplex down another path.
func TestSolveTargetKUnchangedOnFig3World(t *testing.T) {
	d, err := eval.NewDeployment(1)
	if err != nil {
		t.Fatal(err)
	}
	for ti, target := range d.Landmarks {
		var idx []int
		for i := range d.Landmarks {
			if i != ti {
				idx = append(idx, i)
			}
		}
		sub, err := d.Survey.Subset(idx)
		if err != nil {
			t.Fatal(err)
		}
		locs := make([]geo.Point, len(idx))
		rtts := make([]float64, len(idx))
		for k, i := range idx {
			locs[k], rtts[k] = d.Landmarks[i].Loc, d.Survey.RTT[i][ti]
		}
		got, err := height.SolveTargetK(locs, sub.Heights, rtts, sub.Kappa)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceSolveTargetK(locs, sub.Heights, rtts, sub.Kappa)
		bits := math.Float64bits
		if bits(got.HeightMs) != bits(want.HeightMs) || bits(got.Residual) != bits(want.Residual) ||
			bits(got.Coarse.Lat) != bits(want.Coarse.Lat) || bits(got.Coarse.Lon) != bits(want.Coarse.Lon) {
			t.Errorf("%s: %+v, before the hoist %+v", target.Name, got, want)
		}
	}
}
