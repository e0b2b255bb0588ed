package core

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"octant/internal/geo"
	"octant/internal/netsim"
	"octant/internal/probe"
)

// fusedFixture builds one world and a localizer whose survey holds out
// nHold hosts as localization targets, then returns n target addresses
// cycling over the held-out hosts (duplicates are fine: the simulated
// measurements are deterministic, so repeats must reproduce bit-identical
// results — which doubles as a parity check of its own).
func fusedFixture(t testing.TB, seed uint64, nHold, n int) (*Localizer, []string) {
	t.Helper()
	w := netsim.NewWorld(netsim.Config{Seed: seed})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	if nHold >= len(hosts)-3 {
		t.Fatalf("fixture wants %d held-out hosts of %d", nHold, len(hosts))
	}
	var lms []Landmark
	for _, h := range hosts[nHold:] {
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]string, n)
	for i := range targets {
		targets[i] = hosts[i%nHold].Name
	}
	return NewLocalizer(p, s, Config{}), targets
}

// sameProvenance compares the deterministic provenance fields (timings
// excluded — they can never be bit-identical across runs).
func sameProvenance(t *testing.T, name string, a, b *Provenance) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: provenance presence differs: %v vs %v", name, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if a.TotalConstraints != b.TotalConstraints || a.ExtraConstraints != b.ExtraConstraints {
		t.Errorf("%s: provenance totals differ: %d/%d vs %d/%d",
			name, a.TotalConstraints, a.ExtraConstraints, b.TotalConstraints, b.ExtraConstraints)
	}
	if len(a.Sources) != len(b.Sources) {
		t.Fatalf("%s: %d provenance sources vs %d", name, len(a.Sources), len(b.Sources))
	}
	for i := range a.Sources {
		ra, rb := a.Sources[i], b.Sources[i]
		if ra.Source != rb.Source || ra.Constraints != rb.Constraints ||
			ra.Weight != rb.Weight || ra.AreaKm2 != rb.AreaKm2 || ra.Skipped != rb.Skipped {
			t.Errorf("%s: provenance source %d differs: %+v vs %+v", name, i, ra, rb)
		}
	}
}

// batchParity runs the fused batch and the sequential reference under
// identical options and asserts bit-identity target for target.
func batchParity(t *testing.T, loc *Localizer, targets []string, workers int, opts ...LocalizeOption) {
	t.Helper()
	ctx := context.Background()
	var o *LocalizeOptions
	if len(opts) > 0 {
		ro := NewLocalizeOptions(opts...)
		o = &ro
	}
	results, errs := loc.LocalizeBatchWith(ctx, targets, workers, o)
	if len(results) != len(targets) || len(errs) != len(targets) {
		t.Fatalf("result slices %d/%d for %d targets", len(results), len(errs), len(targets))
	}
	for i, target := range targets {
		want, wantErr := loc.LocalizeContext(ctx, target, opts...)
		if (errs[i] == nil) != (wantErr == nil) {
			t.Fatalf("target %d (%s): fused err %v, sequential err %v", i, target, errs[i], wantErr)
		}
		if wantErr != nil {
			continue
		}
		if results[i] == nil {
			t.Fatalf("target %d (%s): nil result without error", i, target)
		}
		sameResult(t, target, want, results[i])
		sameProvenance(t, target, want.Provenance, results[i].Provenance)
	}
}

// TestLocalizeBatchParityTable: the differential parity harness's
// table-driven half — every option class the request API exposes, fused
// vs sequential, bit for bit.
func TestLocalizeBatchParityTable(t *testing.T) {
	loc, targets := fusedFixture(t, 9, 8, 16)
	base, err := loc.LocalizeContext(context.Background(), targets[0])
	if err != nil {
		t.Fatal(err)
	}
	beta := geo.Disk(base.Projection.Forward(base.Point), 50, 32)
	extra := PositiveDisk(base.Projection, base.Point, 800, 0.25, "caller")
	cases := []struct {
		name string
		opts []LocalizeOption
	}{
		{"default", nil},
		{"solver-overrides", []LocalizeOption{WithMinAreaKm2(4000), WithFineCellKm(8)}},
		{"no-router", []LocalizeOption{WithoutSource(SourceRouter)}},
		{"no-geography", []LocalizeOption{WithoutSource(SourceGeography)}},
		{"down-weighted", []LocalizeOption{WithSourceWeight(SourceRouter, 0.5), WithSourceWeight(SourceHint, 0.7)}},
		{"hint", []LocalizeOption{WithHint(base.Point, 150, 0.6, "registry")}},
		{"neg-percentile", []LocalizeOption{WithNegHeightPercentile(90)}},
		{"explain", []LocalizeOption{WithExplain()}},
		{"extra-constraints", []LocalizeOption{WithConstraints(extra)}},
		{"custom-source", []LocalizeOption{WithEvidenceSource(oracleSource{loc: base.Point})}},
		{"secondary", []LocalizeOption{WithSecondary(beta, 3)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batchParity(t, loc, targets, 4, tc.opts...)
		})
	}
}

// TestLocalizeBatchRandomizedParity: the property-test half — seeded
// worlds, 50–200 targets with repeats, a random option mix, and a random
// worker count per round. Every fused result must match its sequential
// reference bit for bit.
func TestLocalizeBatchRandomizedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	optionPool := func(rng *rand.Rand, base *Result) []LocalizeOption {
		var opts []LocalizeOption
		if rng.IntN(2) == 0 {
			opts = append(opts, WithMinAreaKm2(1000+float64(rng.IntN(8))*1000))
		}
		if rng.IntN(3) == 0 {
			opts = append(opts, WithoutSource(SourceRouter))
		}
		if rng.IntN(3) == 0 {
			opts = append(opts, WithSourceWeight(SourceLatency, 0.5+rng.Float64()/2))
		}
		if rng.IntN(3) == 0 {
			opts = append(opts, WithHint(base.Point, 100+float64(rng.IntN(200)), 0.5, "rand-hint"))
		}
		if rng.IntN(4) == 0 {
			opts = append(opts, WithExplain())
		}
		if rng.IntN(4) == 0 {
			opts = append(opts, WithNegHeightPercentile(75+float64(rng.IntN(20))))
		}
		return opts
	}
	for _, round := range []struct {
		seed uint64
		n    int
	}{
		{seed: 11, n: 50},
		{seed: 13, n: 200},
	} {
		rng := rand.New(rand.NewPCG(round.seed, 0xfa5ed))
		loc, targets := fusedFixture(t, round.seed, 10, round.n)
		base, err := loc.LocalizeContext(context.Background(), targets[0])
		if err != nil {
			t.Fatal(err)
		}
		opts := optionPool(rng, base)
		workers := 1 + rng.IntN(8)
		batchParity(t, loc, targets, workers, opts...)
	}
}

// TestLocalizeBatchOfOne: a single-target batch exercises the degenerate
// group (the scalar-fallback shape the batch engine routes through the
// fused path anyway) and must equal the scalar call exactly.
func TestLocalizeBatchOfOne(t *testing.T) {
	loc, targets := fusedFixture(t, 21, 4, 1)
	batchParity(t, loc, targets, 3)
}

// TestLocalizeBatchPartialErrors: a target that is itself a survey
// landmark fails; its neighbours in the batch must still succeed, with
// the error pinned to the offending index only.
func TestLocalizeBatchPartialErrors(t *testing.T) {
	loc, targets := fusedFixture(t, 17, 4, 6)
	bad := loc.Survey.Landmarks[0].Addr
	targets[2] = bad
	results, errs := loc.LocalizeBatch(context.Background(), targets)
	for i := range targets {
		if i == 2 {
			if errs[i] == nil || results[i] != nil {
				t.Errorf("landmark target: err %v, result %v", errs[i], results[i])
			}
			continue
		}
		if errs[i] != nil || results[i] == nil {
			t.Errorf("target %d: err %v", i, errs[i])
		}
	}
}

// TestLocalizeBatchCancellation: a cancelled context reports every
// target with the context error and measures nothing further.
func TestLocalizeBatchCancellation(t *testing.T) {
	loc, targets := fusedFixture(t, 17, 4, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, errs := loc.LocalizeBatch(ctx, targets)
	for i := range targets {
		if errs[i] == nil || results[i] != nil {
			t.Errorf("target %d: err %v result %v after cancel", i, errs[i], results[i])
		}
	}
}

// TestLocalizeBatchNoSurvey: the no-survey error is reported per target,
// matching the scalar path's contract.
func TestLocalizeBatchNoSurvey(t *testing.T) {
	l := &Localizer{}
	results, errs := l.LocalizeBatch(context.Background(), []string{"a", "b"})
	for i := range errs {
		if errs[i] == nil || results[i] != nil {
			t.Errorf("target %d: err %v, result %v", i, errs[i], results[i])
		}
	}
}

// TestDiskConstructorsAgree: a disk is the same bytes whichever way its
// memory is drawn — one allocation per piece (diskConstraint), the group
// arena's chunks, or a lone request's exact-size block — over random centres
// and radii, antimeridian and high-latitude projections, and disks wide
// enough to hold the projection centre's antipode, where the generated ring
// is kept as it is instead of reversed. The exact block must come out full
// and never regrown.
func TestDiskConstructorsAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 5))
	for _, c := range []geo.Point{geo.Pt(41.8, -74), geo.Pt(12, 179.8), geo.Pt(-33, -179.9), geo.Pt(82, 10), geo.Pt(-78, -130)} {
		cf := geo.NewFrame(c)
		type spec struct {
			lf     geo.Frame
			radius float64
			kind   Kind
		}
		var specs []spec
		verts, kept := 0, 0
		for i := 0; i < 300; i++ {
			radius := []float64{3, 60, 400, 2500, 9000, 19500}[i%6] * (0.5 + rng.Float64())
			lm := c.Destination(2*math.Pi*rng.Float64(), 19000*rng.Float64())
			specs = append(specs, spec{geo.NewFrame(lm), radius, Kind(i % 2)})
			verts += geo.CircleSegments(radius, circleChordTolKm)
		}
		chunked := &constraintArena{}
		exact := &constraintArena{vecs: make([]geo.Vec2, 0, verts), rings: make([]geo.Ring, 0, len(specs)), regions: make([]geo.Region, 0, len(specs))}
		block := &exact.vecs[:1][0]
		for i, s := range specs {
			plain := diskConstraint(s.kind, &cf, &s.lf, s.radius, 0.5, "src")
			ring := plain.Region.Rings[0]
			if len(plain.Region.Rings) != 1 || len(ring) != geo.CircleSegments(s.radius, circleChordTolKm) || !ring.IsCCW() {
				t.Fatalf("centre %v disk %d: %d rings, %d vertices, ccw %v", c, i, len(plain.Region.Rings), len(ring), ring.IsCCW())
			}
			if c.DistanceKm(s.lf.Origin)+s.radius > math.Pi*geo.EarthRadiusKm {
				kept++ // holds the antipode
			}
			for name, a := range map[string]*constraintArena{"chunked": chunked, "exact": exact} {
				got := a.disk(s.kind, &cf, &s.lf, s.radius, 0.5, "src")
				if got.Kind != plain.Kind || got.Weight != plain.Weight || got.Source != plain.Source || !reflect.DeepEqual(got.Region.Rings, plain.Region.Rings) {
					t.Fatalf("centre %v disk %d: %s arena's constraint differs from diskConstraint's", c, i, name)
				}
			}
		}
		if len(exact.vecs) != verts || cap(exact.vecs) != verts || &exact.vecs[0] != block || len(exact.regions) != cap(exact.regions) {
			t.Errorf("centre %v: the exact block holds %d of %d vertices (cap %d), regrown %v", c, len(exact.vecs), verts, cap(exact.vecs), &exact.vecs[0] != block)
		}
		if kept < 10 {
			t.Errorf("centre %v: %d disks held the antipode: the suite should exercise the kept orientation", c, kept)
		}
	}
}
