package height_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"octant/internal/geo"
	"octant/internal/height"
	"octant/internal/linalg"
)

// targetObjective is SolveTargetK's objective as the Nelder–Mead fit it
// replaced evaluated it: one full haversine, conversions included, per
// landmark, with t′ clamped at 0, the latitude to ±89.9° and the longitude
// wrapped.
func targetObjective(landmarks []geo.Point, heights, rttMs []float64, kappa float64) func(v []float64) float64 {
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
	if kappa < 1 {
		kappa = 1
	}
	return func(v []float64) float64 {
		tPrime := math.Max(v[0], 0)
		t := geo.Pt(clamp(v[1], -89.9, 89.9), wrap(v[2]))
		var ss float64
		for i := range landmarks {
			pred := heights[i] + tPrime + kappa*geo.DistanceToMinLatencyMs(distanceKm(landmarks[i], t))
			d := pred - rttMs[i]
			ss += d * d / (1 + rttMs[i])
		}
		return ss
	}
}

func clamp(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }

func wrap(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon <= -180 {
		lon += 360
	}
	return lon
}

// referenceSolveTargetK is the Nelder–Mead oracle: SolveTargetK as it ran
// until the Levenberg–Marquardt fit replaced it (NelderMead{MaxIter: 2000,
// Step: 2, Tol: 1e-10} from t′ = 1 at the latency-weighted centroid), then
// restarted from its own best with a fresh half-unit simplex until a restart
// stops improving. The restarts make it a converged oracle: the objective is
// flat in t′ < 0, and a simplex that wanders there stalls above the minimum
// with t′ clamped at 0 — on 43 of the 510 fits of the test below. It returns the
// result and its objective.
func referenceSolveTargetK(landmarks []geo.Point, heights, rttMs []float64, kappa float64) (height.TargetResult, float64) {
	obj := targetObjective(landmarks, heights, rttMs, kappa)
	var wSum, latSum, lonSum float64
	for i, p := range landmarks {
		w := 1 / (1 + rttMs[i])
		latSum += p.Lat * w
		lonSum += p.Lon * w
		wSum += w
	}
	best, fv := linalg.NelderMead(obj, []float64{1, latSum / wSum, lonSum / wSum},
		&linalg.NelderMeadOpts{MaxIter: 2000, Step: 2, Tol: 1e-10})
	for range 20 {
		again, f := linalg.NelderMead(obj, []float64{math.Max(best[0], 0), best[1], best[2]},
			&linalg.NelderMeadOpts{MaxIter: 2000, Step: 0.5, Tol: 1e-12})
		if !(f < fv-1e-13) {
			break
		}
		best, fv = again, f
	}
	return height.TargetResult{
		HeightMs: math.Max(0, best[0]),
		Coarse:   geo.Pt(clamp(best[1], -89.9, 89.9), wrap(best[2])),
		Residual: math.Sqrt(fv / wSum),
	}, fv
}

// objectiveAt is the objective at a result.
func objectiveAt(obj func([]float64) float64, r height.TargetResult) float64 {
	return obj([]float64{r.HeightMs, r.Coarse.Lat, r.Coarse.Lon})
}

// TestSolveTargetKUnchangedOnFig3World: every leave-one-out target of the
// Figure 3 deployments of seeds 1–10 (510 fits), solved from the survey's own
// measurements, against the Nelder–Mead oracle. The fit's objective must be
// at most the oracle's + 1e-9 on every one; where the two end in the same
// minimum (objectives within 1e-6 of each other) the heights must agree
// within 0.05 ms. Where the fit's objective is lower, the oracle's simplex
// settled in a higher basin; those are counted, and must stay rare.
func TestSolveTargetKUnchangedOnFig3World(t *testing.T) {
	seeds := uint64(10)
	if testing.Short() {
		seeds = 2
	}
	fits, lower, maxDh := 0, 0, 0.0
	for seed := uint64(1); seed <= seeds; seed++ {
		for _, in := range fig3Fits(t, seed) {
			got, err := height.SolveTargetK(in.locs, in.heights, in.rtts, in.kappa)
			if err != nil {
				t.Fatal(err)
			}
			want, wantObj := referenceSolveTargetK(in.locs, in.heights, in.rtts, in.kappa)
			gotObj := objectiveAt(targetObjective(in.locs, in.heights, in.rtts, in.kappa), got)
			fits++
			switch {
			case gotObj > wantObj+1e-9:
				t.Errorf("seed %d %s: objective %.12f at %+v, oracle %.12f at %+v", seed, in.name, gotObj, got, wantObj, want)
			case gotObj < wantObj-1e-6*wantObj:
				lower++
				t.Logf("seed %d %s: a lower basin, objective %.6f (height %.3f ms at %v) against the oracle's %.6f (%.3f ms at %v)",
					seed, in.name, gotObj, got.HeightMs, got.Coarse, wantObj, want.HeightMs, want.Coarse)
			default:
				dh := math.Abs(got.HeightMs - want.HeightMs)
				maxDh = math.Max(maxDh, dh)
				if dh > 0.05 {
					t.Errorf("seed %d %s: height %.4f ms, oracle %.4f ms in the same minimum", seed, in.name, got.HeightMs, want.HeightMs)
				}
			}
		}
	}
	t.Logf("%d fits: %d in a lower basin than the oracle's, the rest within %.2g ms of its height", fits, lower, maxDh)
	if lower*10 > fits {
		t.Errorf("%d of %d fits left the oracle's basin", lower, fits)
	}
}

// FuzzSolveTargetK generates a target fit — 3 to 32 landmarks scattered up
// to spread degrees (1 to 60) around a target at (lat, lon), or strung along one great
// circle through it (collinear), landmark 0 on the target itself when
// onLandmark is set, RTTs from the target's height (−10 to 50 ms) plus
// κ = 1.5 times the fiber time plus up to noise ms (at most 20) — and checks what any answer must satisfy:
// finite, inside the bounds (t′ ≥ 0, |lat| ≤ 89.9°, lon in (−180, 180]), no
// worse than the start, Residual the objective's, and — unless it sits
// within 5 km of a landmark, near the kink the arc has there — a local
// minimum: no step of 1e-6 in any parameter lowers the objective by more than
// 1e-7 of itself. The corpus in
// testdata/fuzz/FuzzSolveTargetK holds a target on a landmark (a distance of
// 0, where the Jacobian row has no direction), the antimeridian, |lat| near
// 89.9, collinear landmarks and a height pinned at 0 (RTTs under the fiber
// time).
func FuzzSolveTargetK(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, lat, lon, spread, heightMs, noise float64, onLandmark, collinear bool) {
		for _, v := range []float64{lat, lon, spread, heightMs, noise} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		lat, lon = clamp(lat, -90, 90), wrap(lon)
		spread, heightMs, noise = clamp(math.Abs(spread), 1, 60), clamp(heightMs, -10, 50), clamp(math.Abs(noise), 0, 20)
		rng := rand.New(rand.NewPCG(seed, 28))
		const kappa = 1.5
		target := geo.Pt(lat, lon)
		count := 3 + int(n)%30
		locs, heights, rtts := make([]geo.Point, count), make([]float64, count), make([]float64, count)
		for i := range locs {
			bearing, dist := 2*math.Pi*rng.Float64(), spread*111*rng.Float64()
			if collinear {
				bearing = math.Pi / 2 * float64(1+2*rng.IntN(2))
			}
			locs[i] = target.Destination(bearing, dist)
			if onLandmark && i == 0 {
				locs[i] = target
			}
			heights[i] = 3 * rng.Float64()
			rtts[i] = math.Max(0, heights[i]+heightMs+kappa*geo.DistanceToMinLatencyMs(locs[i].DistanceKm(target))+noise*rng.Float64())
		}
		got, err := height.SolveTargetK(locs, heights, rtts, kappa)
		if err != nil {
			t.Fatal(err)
		}
		x := []float64{got.HeightMs, got.Coarse.Lat, got.Coarse.Lon}
		for _, v := range append(x, got.Residual) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite answer %+v", got)
			}
		}
		if got.HeightMs < 0 || math.Abs(got.Coarse.Lat) > 89.9 || got.Coarse.Lon <= -180 || got.Coarse.Lon > 180 {
			t.Fatalf("answer %+v outside the bounds", got)
		}
		obj := targetObjective(locs, heights, rtts, kappa)
		var wSum, latSum, lonSum float64
		for i, p := range locs {
			w := 1 / (1 + rtts[i])
			latSum += p.Lat * w
			lonSum += p.Lon * w
			wSum += w
		}
		at, tol := obj(x), 1e-9*(1+obj(x))
		if start := obj([]float64{1, latSum / wSum, lonSum / wSum}); at > start+tol {
			t.Fatalf("objective %v at %+v, %v at the start", at, got, start)
		}
		if r := got.Residual * got.Residual * wSum; math.Abs(r-at) > tol {
			t.Fatalf("Residual² · Σw = %v, objective %v", r, at)
		}
		for _, l := range locs {
			if l.DistanceKm(got.Coarse) < 5 {
				return // on a landmark's kink: no derivative, no local-minimum test
			}
		}
		for p := range x {
			for _, h := range []float64{-1e-6, 1e-6} {
				y := append([]float64(nil), x...)
				y[p] += h
				if y[0] < 0 || math.Abs(y[1]) > 89.9 {
					continue
				}
				if v := obj(y); v < at-100*tol {
					t.Fatalf("a step of %v in parameter %d lowers the objective from %v to %v at %+v", h, p, at, v, got)
				}
			}
		}
	})
}
