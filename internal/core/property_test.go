package core

import (
	"context"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"octant/internal/geo"
)

// Property: adding a positive constraint never decreases the solver's best
// weight, and adding a negative constraint never increases it — the
// monotonicity that makes weighted constraint accumulation (§2.4) sound.
func TestSolverWeightMonotonicity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		var cons []Constraint
		n := 3 + rng.IntN(5)
		for i := 0; i < n; i++ {
			c := geo.V2(rng.Float64()*200-100, rng.Float64()*200-100)
			cons = append(cons, Constraint{
				Kind:   Positive,
				Region: geo.Disk(c, 40+rng.Float64()*120, 64),
				Weight: 0.2 + rng.Float64(),
			})
		}
		opts := SolverOpts{MinAreaKm2: 200}
		base, err := Solve(cons, opts)
		if err != nil {
			return false
		}
		// Add a positive constraint overlapping the current best point.
		extra := Constraint{
			Kind:   Positive,
			Region: geo.Disk(base.Point, 80, 64),
			Weight: 0.5,
		}
		more, err := Solve(append(append([]Constraint{}, cons...), extra), opts)
		if err != nil {
			return false
		}
		if more.Weight < base.Weight-1e-9 {
			return false
		}
		// Add a negative constraint covering the best point.
		neg := Constraint{
			Kind:   Negative,
			Region: geo.Disk(base.Point, 80, 64),
			Weight: 0.5,
		}
		less, err := Solve(append(append([]Constraint{}, cons...), neg), opts)
		if err != nil {
			return false
		}
		return less.Weight <= base.Weight+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the solution region of a positive-only system always lies
// inside the union of the positive constraints (no invented area).
func TestSolverRegionWithinPositiveUnion(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 22))
		var cons []Constraint
		var regions []*geo.Region
		n := 2 + rng.IntN(4)
		for i := 0; i < n; i++ {
			c := geo.V2(rng.Float64()*150-75, rng.Float64()*150-75)
			r := geo.Disk(c, 50+rng.Float64()*80, 64)
			regions = append(regions, r)
			cons = append(cons, Constraint{Kind: Positive, Region: r, Weight: 1})
		}
		sol, err := Solve(cons, SolverOpts{MinAreaKm2: 100})
		if err != nil {
			return false
		}
		// Invented area shows on the boundary: every ring vertex of the
		// solution region must lie in, or next to, a constraint region.
		var points []geo.Vec2
		for _, ring := range sol.Region.Rings {
			points = append(points, ring...)
		}
		for _, p := range points {
			inAny := false
			for _, r := range regions {
				if r.Contains(p) {
					inAny = true
					break
				}
			}
			// Raster cell granularity tolerance: allow points within a
			// couple of km of some region.
			if !inAny {
				near := false
				for _, r := range regions {
					if r.Rings[0].DistanceTo(p) < 5 {
						near = true
						break
					}
				}
				if !near {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the answer does not flip with the last bits of a weight. On
// generated worlds, each constraint of each target's solve in turn has its
// weight scaled by 1 + k·2⁻³⁰ (|k| ≤ 16: a change no one would call a change
// of evidence, but enough to move a sum across a rounding boundary of the
// levels' 1e-9 quantization). The chosen level's cells — the traced region,
// on a fine grid placed by the coarse level's cells — must not change, and the
// point estimate must stay within one fine cell.
func TestTopLevelStableUnderWeightPerturbation(t *testing.T) {
	worlds := []uint64{1, 2, 5}
	if testing.Short() {
		worlds = worlds[:1]
	}
	for _, seed := range worlds {
		loc, targets := fusedFixture(t, seed, 8, 8)
		opts := SolverOpts{MinAreaKm2: minRegionAreaKm2, LandRegions: loc.projContext().Land, Masks: loc.LandMasks()}
		opts.fillDefaults()
		moved := 0
		for ti, target := range targets {
			res, err := loc.LocalizeContext(context.Background(), target)
			if err != nil {
				t.Fatalf("world %d %s: %v", seed, target, err)
			}
			base, err := Solve(res.Constraints, opts)
			if err != nil {
				t.Fatalf("world %d %s: %v", seed, target, err)
			}
			cs := append([]Constraint(nil), res.Constraints...)
			for i := range cs {
				k := float64(1 + (i*7+ti)%16)
				if i%2 == 1 {
					k = -k
				}
				w := cs[i].Weight
				cs[i].Weight = w * (1 + k*0x1p-30)
				got, err := Solve(cs, opts)
				cs[i].Weight = w
				if err != nil {
					t.Fatalf("world %d %s: constraint %d: %v", seed, target, i, err)
				}
				if !reflect.DeepEqual(got.Region.Rings, base.Region.Rings) || got.CellKm != base.CellKm {
					moved++
					t.Errorf("world %d %s: constraint %d (%s, weight %v) × (1 %+v·2⁻³⁰) changes the level's cells: area %.0f → %.0f km²",
						seed, target, i, cs[i].Source, w, k, base.Region.Area(), got.Region.Area())
				}
				if d := got.Point.Dist(base.Point); d > opts.FineCellKm {
					moved++
					t.Errorf("world %d %s: constraint %d (%s, weight %v) × (1 %+v·2⁻³⁰) moves the point %.1f km",
						seed, target, i, cs[i].Source, w, k, d)
				}
				if moved > 20 {
					t.Fatalf("giving up after %d failures", moved)
				}
			}
		}
	}
}
