package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"octant/internal/geo"
	"octant/internal/geodb"
	"octant/internal/netsim"
	"octant/internal/probe"
)

// hintDeployment builds a hint-bearing world, holds targetIdx out of the
// survey, and returns a localizer plus the target node.
func hintDeployment(t *testing.T, cfg netsim.Config, lcfg Config, targetIdx int) (*Localizer, *netsim.Node, *netsim.World) {
	t.Helper()
	w := netsim.NewWorld(cfg)
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	var lms []Landmark
	for i, h := range hosts {
		if i == targetIdx {
			continue
		}
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	return NewLocalizer(p, s, lcfg), hosts[targetIdx], w
}

// hintedTargetIdx finds a host carrying a synthetic reverse name.
func hintedTargetIdx(t *testing.T, cfg netsim.Config) int {
	t.Helper()
	w := netsim.NewWorld(cfg)
	for i, h := range w.HostNodes() {
		if w.ReverseName(h.ID) != h.Name {
			return i
		}
	}
	t.Fatal("no hint-bearing host in world")
	return -1
}

// A truthful reverse-name hint must survive cross-validation and appear
// as an applied rdns constraint, with the disagreement report attached.
func TestRDNSSourceAppliesTruthfulHint(t *testing.T) {
	wcfg := netsim.Config{Seed: 1, HostRDNSHintFrac: 1}
	ti := hintedTargetIdx(t, wcfg)
	loc, target, _ := hintDeployment(t, wcfg, Config{}, ti)
	res, err := loc.LocalizeContext(context.Background(), target.Name, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for _, c := range res.Constraints {
		if strings.HasPrefix(c.Source, "rdns:") {
			applied++
		}
	}
	if applied == 0 {
		t.Fatal("no rdns constraint applied for a hint-bearing target")
	}
	if len(res.Provenance.DroppedHints) != 0 {
		t.Errorf("truthful hint dropped: %v", res.Provenance.DroppedHints)
	}
	d := res.Provenance.Disagreement
	if d == nil {
		t.Fatal("no disagreement report despite applied hints")
	}
	if d.Conflict {
		t.Errorf("truthful hint flagged as conflict: %+v", d)
	}
	// Accuracy: the hint points at the city the target actually sits near.
	if res.Point.DistanceKm(target.Loc) > 150 {
		t.Errorf("hinted localization %0.f km off", res.Point.DistanceKm(target.Loc))
	}
}

// A poisoned reverse name (city ≥ 1500 km away) must be dropped by the
// RTT cross-validation, named in Provenance even without Explain, and
// must not change the answer relative to disabling the source.
func TestRDNSSourceDropsPoisonedHint(t *testing.T) {
	wcfg := netsim.Config{Seed: 1, HostRDNSHintFrac: 1, HostRDNSWrongFrac: 1}
	ti := hintedTargetIdx(t, wcfg)
	loc, target, _ := hintDeployment(t, wcfg, Config{}, ti)
	ctx := context.Background()

	res, err := loc.LocalizeContext(ctx, target.Name)
	if err != nil {
		t.Fatal(err)
	}
	if res.Provenance == nil || len(res.Provenance.DroppedHints) == 0 {
		t.Fatal("poisoned hint not recorded as dropped (drops must attach without Explain)")
	}
	dh := res.Provenance.DroppedHints[0]
	if !strings.HasPrefix(dh.Hint, "rdns:") || !strings.Contains(dh.Reason, "RTT bounds the target") {
		t.Errorf("dropped hint = %+v", dh)
	}
	for _, c := range res.Constraints {
		if strings.HasPrefix(c.Source, "rdns:") {
			t.Errorf("dropped hint still produced constraint %q", c.Source)
		}
	}

	ref, err := loc.LocalizeContext(ctx, target.Name, WithoutSource(SourceRDNS))
	if err != nil {
		t.Fatal(err)
	}
	if res.Point != ref.Point || res.AreaKm2 != ref.AreaKm2 {
		t.Errorf("dropped hint changed the answer: %v/%v vs %v/%v",
			res.Point, res.AreaKm2, ref.Point, ref.AreaKm2)
	}
}

// The geo-DB stage: a fresh record applies (labelled by record source,
// Composite trust scaling the weight), a wrong record is cross-validated
// away, and WithGeoDB overrides Config.GeoDB.
func TestGeoDBSourceAppliesAndDrops(t *testing.T) {
	wcfg := netsim.Config{Seed: 1}
	mk := func(opts geodb.SynthOpts) func(*netsim.World) geodb.Provider {
		return func(w *netsim.World) geodb.Provider { return geodb.NewSynth(w, opts) }
	}
	ctx := context.Background()

	// Fresh DB via Config.GeoDB.
	w := netsim.NewWorld(wcfg)
	loc, target, _ := hintDeployment(t, wcfg, Config{GeoDB: mk(geodb.SynthOpts{Seed: 1})(w)}, 0)
	res, err := loc.LocalizeContext(ctx, target.Name, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.Constraints {
		if c.Source == "geodb:synth" {
			found = true
		}
	}
	if !found {
		t.Fatal("no geodb constraint applied from Config.GeoDB")
	}
	if res.Provenance.Disagreement == nil {
		t.Error("no disagreement report despite applied geo-DB prior")
	}

	// Wrong DB via WithGeoDB (overriding the configured fresh one).
	wrong := geodb.NewSynth(w, geodb.SynthOpts{Seed: 1, WrongFrac: 1})
	res, err = loc.LocalizeContext(ctx, target.Name, WithGeoDB(wrong))
	if err != nil {
		t.Fatal(err)
	}
	if res.Provenance == nil || len(res.Provenance.DroppedHints) == 0 {
		t.Fatal("wrong geo-DB record not dropped")
	}
	if dh := res.Provenance.DroppedHints[0]; !strings.HasPrefix(dh.Hint, "geodb:synth-wrong") {
		t.Errorf("dropped = %+v", dh)
	}
	for _, c := range res.Constraints {
		if strings.HasPrefix(c.Source, "geodb:") {
			t.Errorf("dropped record still produced constraint %q", c.Source)
		}
	}
}

// Composite trust and staleness reach the constraint weight: a stale
// record under a decaying composite must weigh less than the same record
// served fresh.
func TestGeoDBCompositeWeightReachesConstraint(t *testing.T) {
	wcfg := netsim.Config{Seed: 1}
	w := netsim.NewWorld(wcfg)
	stale := geodb.NewSynth(w, geodb.SynthOpts{Seed: 1, StaleFrac: 1})
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	comp := geodb.NewComposite(geodb.CompositeOpts{
		StaleHalfLife: 365 * 24 * time.Hour,
		Now:           func() time.Time { return now },
	})
	comp.AddProvider(stale, 1)

	loc, target, _ := hintDeployment(t, wcfg, Config{}, 0)
	ctx := context.Background()
	weightOf := func(p geodb.Provider) float64 {
		t.Helper()
		res, err := loc.LocalizeContext(ctx, target.Name, WithGeoDB(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Constraints {
			if strings.HasPrefix(c.Source, "geodb:") {
				return c.Weight
			}
		}
		// Stale records drift 300 km, which a nearby landmark's RTT bound
		// may legitimately reject; that would void the comparison.
		t.Fatalf("no geodb constraint applied for %s", p.Name())
		return 0
	}
	direct := weightOf(stale)
	decayed := weightOf(comp)
	if decayed >= direct {
		t.Errorf("composite stale weight %v not below direct %v", decayed, direct)
	}
}

// Conflicting evidence classes (hint city vs DB city far apart, both
// feasible) must set the Conflict flag once more than 500 km apart.
func TestDisagreementConflictFlag(t *testing.T) {
	wcfg := netsim.Config{Seed: 1, HostRDNSHintFrac: 1}
	ti := hintedTargetIdx(t, wcfg)
	loc, target, _ := hintDeployment(t, wcfg, Config{}, ti)
	// A record 700 km off with an 800 km radius: every landmark's RTT
	// bound admits it, yet it names another metro than the honest
	// reverse-name hint does.
	far := geodb.NewStatic("far")
	far.Add(target.Name, geodb.Record{Loc: target.Loc.Destination(0, 700), RadiusKm: 800})
	res, err := loc.LocalizeContext(context.Background(), target.Name, WithGeoDB(far))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Provenance.Disagreement
	if d == nil || !d.Conflict {
		t.Fatalf("conflict not flagged: %+v", d)
	}
	if d.DisagreementKm <= 500 || d.HintGeoDBKm <= 0 {
		t.Errorf("disagreement distances not filled: %+v", d)
	}
}

// validatePrior unit coverage: feasible claims pass, infeasible ones name
// the violated landmark; NaN slots (degraded landmarks) are skipped.
func TestValidatePrior(t *testing.T) {
	loc, target, _ := hintDeployment(t, netsim.Config{Seed: 1}, Config{}, 0)
	res, err := loc.LocalizeContext(context.Background(), target.Name)
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{Survey: loc.Survey, RTTs: res.RTTs}
	if reason := req.validatePrior(target.Loc, 50); reason != "" {
		t.Errorf("truth rejected: %s", reason)
	}
	antipode := geo.Pt(-target.Loc.Lat, target.Loc.Lon+180)
	if reason := req.validatePrior(antipode, 50); reason == "" {
		t.Error("antipodal claim passed validation")
	}
	// Without a full RTT vector there is nothing to validate against.
	empty := &Request{Survey: loc.Survey}
	if reason := empty.validatePrior(antipode, 50); reason != "" {
		t.Errorf("unmeasured request rejected a claim: %s", reason)
	}
}
