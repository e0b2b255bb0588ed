package core

import (
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"octant/internal/geo"
	"octant/internal/geodb"
)

// localizeFixture builds one deployment and a default localizer for the
// v2 API tests.
func localizeFixture(t *testing.T, seed uint64, targetIdx int) (*Localizer, string) {
	t.Helper()
	p, lms, target := testDeployment(t, seed, targetIdx)
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	return NewLocalizer(p, s, Config{}), target.Name
}

// sameResult asserts bitwise equality of every solver-derived field.
func sameResult(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if a.Point != b.Point {
		t.Errorf("%s: point %v != %v", name, a.Point, b.Point)
	}
	if a.AreaKm2 != b.AreaKm2 {
		t.Errorf("%s: area %v != %v", name, a.AreaKm2, b.AreaKm2)
	}
	if a.Weight != b.Weight {
		t.Errorf("%s: weight %v != %v", name, a.Weight, b.Weight)
	}
	if a.TargetHeightMs != b.TargetHeightMs {
		t.Errorf("%s: height %v != %v", name, a.TargetHeightMs, b.TargetHeightMs)
	}
	if !reflect.DeepEqual(a.RTTs, b.RTTs) {
		t.Errorf("%s: RTT vectors differ", name)
	}
	if len(a.Constraints) != len(b.Constraints) {
		t.Fatalf("%s: %d constraints != %d", name, len(a.Constraints), len(b.Constraints))
	}
	for i := range a.Constraints {
		ca, cb := a.Constraints[i], b.Constraints[i]
		if ca.Kind != cb.Kind || ca.Weight != cb.Weight || ca.Source != cb.Source {
			t.Errorf("%s: constraint %d header differs: %v vs %v", name, i, ca, cb)
		}
		if !reflect.DeepEqual(ca.Region.Rings, cb.Region.Rings) {
			t.Errorf("%s: constraint %d (%s) region differs", name, i, ca.Source)
		}
	}
	if !reflect.DeepEqual(a.Region.Rings, b.Region.Rings) {
		t.Errorf("%s: solution regions differ", name)
	}
}

// TestLocalizeContextDefaultBitIdentical: the no-options fast path (nil
// resolved options, nothing allocated for them) must be bit-identical,
// constraint for constraint, to the same request made with an explicitly
// resolved empty options set, and neither attaches provenance.
// Equivalence with the pre-pipeline monolith itself was established when
// the pipeline landed (identical Fig3/Fig4 outputs) and is pinned ongoing
// by the eval-figure tests and the serve-layer goldens.
func TestLocalizeContextDefaultBitIdentical(t *testing.T) {
	for _, ti := range []int{0, 17, 42} {
		loc, target := localizeFixture(t, 3, ti)
		fast, err := loc.LocalizeContext(context.Background(), target)
		if err != nil {
			t.Fatal(err)
		}
		empty := NewLocalizeOptions()
		resolved, err := loc.LocalizeWith(context.Background(), target, &empty)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, target, fast, resolved)
		if fast.Provenance != nil || resolved.Provenance != nil {
			t.Errorf("%s: default options must not attach provenance", target)
		}
	}
}

// TestWithSecondaryBitIdenticalToDeprecated: WithSecondary folds the §2
// secondary-landmark constraints into the request — the base request's
// constraints untouched and in order, the secondary's appended — and
// provenance describes the result actually returned. (The deprecated
// LocalizeWithSecondary wrapper this once compared against is gone; the
// name is kept for the test history.)
func TestWithSecondaryBitIdenticalToDeprecated(t *testing.T) {
	loc, target := localizeFixture(t, 5, 12)
	base, err := loc.LocalizeContext(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	pr := base.Projection
	beta := geo.Disk(pr.Forward(geo.Pt(42.44, -76.50)), 40, 64)

	new2, err := loc.LocalizeContext(context.Background(), target, WithSecondary(beta, 2.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(new2.Constraints) <= len(base.Constraints) {
		t.Fatalf("%d constraints with a secondary, %d without", len(new2.Constraints), len(base.Constraints))
	}
	for i, c := range base.Constraints {
		got := new2.Constraints[i]
		if got.Kind != c.Kind || got.Weight != c.Weight || got.Source != c.Source ||
			!reflect.DeepEqual(got.Region.Rings, c.Region.Rings) {
			t.Errorf("constraint %d (%s) changed when a secondary was folded in", i, c.Source)
		}
	}
	found := false
	for _, c := range new2.Constraints {
		if c.Source == "secondary" {
			found = true
		}
	}
	if !found {
		t.Error("secondary constraint missing from option path")
	}

	// With explain, provenance must describe the result actually
	// returned — secondary stage included.
	expl, err := loc.LocalizeContext(context.Background(), target, WithSecondary(beta, 2.5), WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	prov := expl.Provenance
	if prov == nil || prov.TotalConstraints != len(expl.Constraints) {
		t.Fatalf("secondary provenance total %v vs %d constraints", prov, len(expl.Constraints))
	}
	secRep := SourceReport{}
	total := 0
	for _, rep := range prov.Sources {
		total += rep.Constraints
		if rep.Source == "secondary" {
			secRep = rep
		}
	}
	if secRep.Source == "" || secRep.Constraints == 0 {
		t.Errorf("no secondary stage in provenance: %+v", prov.Sources)
	}
	if total != prov.TotalConstraints {
		t.Errorf("per-source counts sum to %d, total %d", total, prov.TotalConstraints)
	}
}

// TestSecondaryIsOneSolve: a secondary landmark's constraints join the
// request's one solve — the solver passes a WithSecondary localization
// runs are those of one Solve over the constraints it returns, and that
// Solve is its answer. The secondary stays last in the provenance and
// takes no source weight.
func TestSecondaryIsOneSolve(t *testing.T) {
	loc, target := localizeFixture(t, 5, 12)
	pctx := loc.projContext()
	beta := geo.Disk(pctx.Proj.Forward(geo.Pt(42.44, -76.50)), 40, 64)
	passes := func() uint64 { return loc.LandMasks().SolverStats().Passes }

	before := passes()
	res, err := loc.LocalizeContext(context.Background(), target, WithSecondary(beta, 2.5), WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	localized := passes() - before
	before = passes()
	sol, err := Solve(res.Constraints, SolverOpts{MinAreaKm2: minRegionAreaKm2, LandRegions: pctx.Land, Masks: loc.LandMasks()})
	if err != nil {
		t.Fatal(err)
	}
	if solved := passes() - before; localized != solved {
		t.Errorf("localization ran %d solver passes, one Solve of its constraints %d", localized, solved)
	}
	if !reflect.DeepEqual(sol.Region.Rings, res.Region.Rings) || res.Weight != sol.Weight {
		t.Error("the returned region is not the Solve of the returned constraints")
	}
	srcs := res.Provenance.Sources
	if last := srcs[len(srcs)-1]; last.Source != "secondary" || last.WeightScale != 1 {
		t.Errorf("last provenance stage %+v, want the unscaled secondary", last)
	}

	scaled, err := loc.LocalizeContext(context.Background(), target, WithSecondary(beta, 2.5), WithSourceWeight("secondary", 3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scaled.Region.Rings, res.Region.Rings) {
		t.Error(`WithSourceWeight("secondary") moved the answer`)
	}
}

// TestExplainProvenance: WithExplain must fill per-source provenance
// whose counts reconcile with the solved constraint system.
func TestExplainProvenance(t *testing.T) {
	loc, target := localizeFixture(t, 3, 7)
	plain, err := loc.LocalizeContext(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loc.LocalizeContext(context.Background(), target, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, target, plain, res) // explain must not perturb the solve
	prov := res.Provenance
	if prov == nil || len(prov.Sources) == 0 {
		t.Fatal("WithExplain returned no provenance")
	}
	if len(prov.Sources) != len(defaultSources) {
		t.Errorf("provenance covers %d sources, want %d", len(prov.Sources), len(defaultSources))
	}
	byName := map[string]SourceReport{}
	total := 0
	for _, rep := range prov.Sources {
		byName[rep.Source] = rep
		total += rep.Constraints
	}
	if total != prov.TotalConstraints || total != len(res.Constraints) {
		t.Errorf("per-source counts sum to %d, total %d, constraints %d",
			total, prov.TotalConstraints, len(res.Constraints))
	}
	lat := byName[SourceLatency]
	if lat.Constraints < loc.Survey.N() {
		t.Errorf("latency source reports %d constraints for %d landmarks", lat.Constraints, loc.Survey.N())
	}
	if lat.Weight <= 0 || lat.AreaKm2 <= 0 {
		t.Errorf("latency source report lacks weight/area: %+v", lat)
	}
	if geoRep := byName[SourceGeography]; geoRep.Constraints != 0 {
		t.Errorf("geography source should contribute 0 weighted constraints, got %d", geoRep.Constraints)
	}
}

// TestDisableRouterChangesConstraints: disabling the RouterSource per
// request must demonstrably change the constraint count, and the
// provenance must show the skip.
func TestDisableRouterChangesConstraints(t *testing.T) {
	loc, target := localizeFixture(t, 3, 11)
	full, err := loc.LocalizeContext(context.Background(), target, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	nRouter := 0
	for _, rep := range full.Provenance.Sources {
		if rep.Source == SourceRouter {
			nRouter = rep.Constraints
		}
	}
	if nRouter == 0 {
		t.Fatal("fixture target has no router constraints; pick another target")
	}
	off, err := loc.LocalizeContext(context.Background(), target, WithoutSource(SourceRouter), WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(off.Constraints), len(full.Constraints)-nRouter; got != want {
		t.Errorf("router-off constraint count %d, want %d (full %d − router %d)",
			got, want, len(full.Constraints), nRouter)
	}
	for _, rep := range off.Provenance.Sources {
		if rep.Source == SourceRouter && rep.Skipped == "" {
			t.Error("router report not marked skipped")
		}
	}
}

// TestSourceWeightScaling: WithSourceWeight must scale exactly the named
// source's constraint weights.
func TestSourceWeightScaling(t *testing.T) {
	loc, target := localizeFixture(t, 5, 9)
	base, err := loc.LocalizeContext(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := loc.LocalizeContext(context.Background(), target, WithSourceWeight(SourceRouter, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Constraints) != len(scaled.Constraints) {
		t.Fatalf("constraint counts differ: %d vs %d", len(base.Constraints), len(scaled.Constraints))
	}
	routers := 0
	for i := range base.Constraints {
		cb, cs := base.Constraints[i], scaled.Constraints[i]
		isRouter := len(cb.Source) > 7 && cb.Source[:7] == "router:"
		if isRouter {
			routers++
			if cs.Weight != cb.Weight*0.5 {
				t.Errorf("router constraint %s weight %v, want %v", cb.Source, cs.Weight, cb.Weight*0.5)
			}
		} else if cs.Weight != cb.Weight {
			t.Errorf("non-router constraint %s weight changed: %v vs %v", cb.Source, cs.Weight, cb.Weight)
		}
	}
	if routers == 0 {
		t.Error("no router constraints in fixture")
	}
}

// TestHintAndExtraConstraints: caller hints and extra constraints enter
// the system and show in provenance.
func TestHintAndExtraConstraints(t *testing.T) {
	loc, target := localizeFixture(t, 5, 20)
	base, err := loc.LocalizeContext(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	extra := PositiveDisk(base.Projection, base.Point, 500, 0.3, "caller")
	res, err := loc.LocalizeContext(context.Background(), target,
		WithHint(base.Point, 120, 0.6, "registry"),
		WithConstraints(extra),
		WithExplain(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Constraints), len(base.Constraints)+2; got != want {
		t.Errorf("constraints %d, want %d", got, want)
	}
	var hasHint, hasCaller bool
	for _, c := range res.Constraints {
		switch c.Source {
		case "registry":
			hasHint = true
		case "caller":
			hasCaller = true
		}
	}
	if !hasHint || !hasCaller {
		t.Errorf("hint present %v, caller constraint present %v", hasHint, hasCaller)
	}
	if res.Provenance.ExtraConstraints != 1 {
		t.Errorf("provenance extra constraints %d, want 1", res.Provenance.ExtraConstraints)
	}
}

// TestSolverOverrides: per-request solver knobs must change the solve in
// the documented direction without touching the Localizer.
func TestSolverOverrides(t *testing.T) {
	loc, target := localizeFixture(t, 3, 25)
	base, err := loc.LocalizeContext(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := loc.LocalizeContext(context.Background(), target, WithMinAreaKm2(4*base.AreaKm2))
	if err != nil {
		t.Fatal(err)
	}
	if wide.AreaKm2 < base.AreaKm2 {
		t.Errorf("larger size threshold shrank the region: %v < %v", wide.AreaKm2, base.AreaKm2)
	}
	// The Localizer itself is untouched: a follow-up default request
	// reproduces the baseline exactly.
	again, err := loc.LocalizeContext(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, target, base, again)
}

// TestLatencyDisabledStillMeasures: with the latency source disabled, a
// hint-driven localization still works and downstream sources still see
// the RTT vector.
func TestLatencyDisabledStillMeasures(t *testing.T) {
	p, lms, target := testDeployment(t, 5, 30)
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	loc := NewLocalizer(p, s, Config{})
	res, err := loc.LocalizeContext(context.Background(), target.Name,
		WithoutSource(SourceLatency),
		WithHint(target.Loc, 200, 0.9, "oracle"),
		WithExplain(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RTTs) != s.N() {
		t.Errorf("RTT vector %d, want %d (measurement must survive the disable)", len(res.RTTs), s.N())
	}
	for _, rep := range res.Provenance.Sources {
		if rep.Source == SourceLatency {
			if rep.Constraints != 0 || rep.Skipped == "" {
				t.Errorf("latency report = %+v, want skipped with 0 constraints", rep)
			}
		}
	}
	if res.Region.IsEmpty() || math.IsNaN(res.Point.Lat) {
		t.Error("hint-driven localization produced no estimate")
	}
}

// TestCancelledContextAborts: a pre-cancelled context must abort the
// measurement phase with the context error.
func TestCancelledContextAborts(t *testing.T) {
	loc, target := localizeFixture(t, 3, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := loc.LocalizeContext(ctx, target); err == nil {
		t.Error("cancelled context did not abort the localization")
	}
}

// TestCustomEvidenceSource: a request-scoped custom source contributes
// constraints and appears in provenance under its own name.
type oracleSource struct{ loc geo.Point }

func (o oracleSource) Name() string { return "oracle" }
func (o oracleSource) Constraints(_ context.Context, req *Request) ([]Constraint, SourceReport, error) {
	c := PositiveDisk(req.PCtx.Proj, o.loc, 150, 0.9, "oracle")
	return []Constraint{c}, SourceReport{Source: "oracle"}, nil
}

func TestCustomEvidenceSource(t *testing.T) {
	p, lms, target := testDeployment(t, 3, 33)
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	loc := NewLocalizer(p, s, Config{})
	res, err := loc.LocalizeContext(context.Background(), target.Name,
		WithEvidenceSource(oracleSource{loc: target.Loc}), WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rep := range res.Provenance.Sources {
		if rep.Source == "oracle" && rep.Constraints == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("custom source missing from provenance: %+v", res.Provenance.Sources)
	}
	var o LocalizeOptions
	WithEvidenceSource(oracleSource{})(&o)
	if o.Cacheable() {
		t.Error("options with extra sources must not be cacheable")
	}
}

// TestFingerprint pins the fingerprint contract the batch engine keys
// its cache on: default == "", equal options collide, different options
// never do.
func TestFingerprint(t *testing.T) {
	var def LocalizeOptions
	if fp := def.Fingerprint(); fp != "" {
		t.Errorf("default fingerprint %q, want empty", fp)
	}
	mk := func(opts ...LocalizeOption) string {
		o := NewLocalizeOptions(opts...)
		return o.Fingerprint()
	}
	a := mk(WithoutSource(SourceRouter), WithMinAreaKm2(1000))
	b := mk(WithMinAreaKm2(1000), WithoutSource(SourceRouter))
	if a == "" || a != b {
		t.Errorf("order-independent options fingerprint differently: %q vs %q", a, b)
	}
	distinct := []string{
		"",
		mk(WithoutSource(SourceRouter)),
		mk(WithoutSource(SourceGeography)),
		mk(WithSourceWeight(SourceRouter, 0.5)),
		mk(WithSourceWeight(SourceRouter, 0.25)),
		mk(WithMinAreaKm2(1000)),
		mk(WithFineCellKm(8)),
		mk(WithNegHeightPercentile(90)),
		mk(WithExplain()),
		mk(WithHint(geo.Pt(1, 2), 50, 0.5, "x")),
		mk(WithHint(geo.Pt(1, 2), 50, 0.5, "y")),
		mk(WithSecondary(geo.Disk(geo.V2(0, 0), 10, 16), 2)),
		mk(WithSecondary(geo.Disk(geo.V2(0, 0), 10, 16), 3)),
		// Names and labels that spell the encoding's separators.
		mk(WithoutSource("hint,router")),
		mk(WithoutSource("router"), WithoutSource("hint")),
		mk(WithSourceWeight("a:0x1p+00,b", 2)),
		mk(WithSourceWeight("a", 1), WithSourceWeight("b", 2)),
		mk(WithHint(geo.Pt(10, 20), 0, 0, "x"), WithHint(geo.Pt(40, 80), 0, 0, "y")),
		mk(WithHint(geo.Pt(10, 20), 0, 0, "x\x00"+hashedFloats(40, 80, 0, 0)+"y")),
	}
	seen := map[string]int{}
	for i, fp := range distinct {
		if j, dup := seen[fp]; dup {
			t.Errorf("options %d and %d share fingerprint %q", i, j, fp)
		}
		seen[fp] = i
	}

	// What no wire request carries (FuzzFingerprint covers the rest)
	// encodes as the strings.Builder version did, byte for byte.
	all := NewLocalizeOptions(WithoutSource(SourceRouter), WithSourceWeight(SourceHint, 0.5),
		WithMinLandmarks(-4), WithHint(geo.Pt(1, 2), 50, 0.5, "x"),
		WithConstraints(Constraint{Kind: Positive, Weight: 1, Source: "c", Region: geo.Disk(geo.V2(0, 0), 10, 16)}),
		WithEvidenceSource(LatencySource{}), WithGeoDB(geodb.NewStatic("db")),
		WithSecondary(geo.Disk(geo.V2(0, 0), 10, 16), 2))
	if fp, want := all.Fingerprint(), fingerprintOracle(&all); fp != want {
		t.Errorf("fingerprint %q, oracle %q", fp, want)
	}
}

// hashedFloats is the bytes a NUL-terminated-label hint encoding hashed
// for these coordinates, radius and weight: a label carrying them between
// two real labels used to pass for two hints.
func hashedFloats(fs ...float64) string {
	var b []byte
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return string(b)
}
