package core

import (
	"context"
	"testing"

	"octant/internal/geo"
	"octant/internal/netsim"
	"octant/internal/probe"
)

// testDeployment builds a world, a prober, landmarks for all hosts except
// the target index, and the target host node.
func testDeployment(t *testing.T, seed uint64, targetIdx int) (*probe.SimProber, []Landmark, *netsim.Node) {
	t.Helper()
	w := netsim.NewWorld(netsim.Config{Seed: seed})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	var lms []Landmark
	for i, h := range hosts {
		if i == targetIdx {
			continue
		}
		lms = append(lms, Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	return p, lms, hosts[targetIdx]
}

func TestNewSurvey(t *testing.T) {
	p, lms, _ := testDeployment(t, 3, 0)
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != len(lms) {
		t.Fatalf("N = %d", s.N())
	}
	// RTT matrix symmetric with zero diagonal.
	for i := 0; i < s.N(); i++ {
		if s.RTT[i][i] != 0 {
			t.Errorf("RTT[%d][%d] = %v", i, i, s.RTT[i][i])
		}
		for j := i + 1; j < s.N(); j++ {
			if s.RTT[i][j] != s.RTT[j][i] {
				t.Errorf("RTT asymmetric at (%d,%d)", i, j)
			}
			if s.RTT[i][j] <= 0 {
				t.Errorf("RTT[%d][%d] = %v not positive", i, j, s.RTT[i][j])
			}
		}
	}
	// Heights non-negative and plausible.
	for i, h := range s.Heights {
		if h < 0 || h > 25 {
			t.Errorf("height[%d] = %v implausible", i, h)
		}
	}
	// Kappa in its clamp range and realistic.
	if s.Kappa < 1 || s.Kappa > 3 {
		t.Errorf("kappa = %v", s.Kappa)
	}
	if s.Global == nil || len(s.Calibs) != s.N() {
		t.Error("missing calibrations")
	}
	// Too few landmarks.
	if _, err := NewSurvey(p, lms[:2], SurveyOpts{}); err == nil {
		t.Error("2 landmarks should error")
	}
}

func TestSurveySubset(t *testing.T) {
	p, lms, _ := testDeployment(t, 3, 0)
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 5, 10, 15, 20, 25, 30}
	sub, err := s.Subset(idx)
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != len(idx) {
		t.Fatalf("subset N = %d", sub.N())
	}
	// Measurements are reused, not re-measured.
	for a, i := range idx {
		for b, j := range idx {
			if sub.RTT[a][b] != s.RTT[i][j] {
				t.Fatalf("subset RTT mismatch at (%d,%d)", a, b)
			}
		}
	}
	if _, err := s.Subset([]int{1, 2}); err == nil {
		t.Error("subset of 2 should error")
	}
}

func TestLocalizeEndToEnd(t *testing.T) {
	// Localize a handful of targets; errors must be bounded and regions
	// usually contain the truth.
	var errsMi []float64
	contained := 0
	n := 0
	for _, ti := range []int{0, 10, 20, 30, 40} {
		p, lms, target := testDeployment(t, 3, ti)
		s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
		if err != nil {
			t.Fatal(err)
		}
		loc := NewLocalizer(p, s, Config{})
		res, err := loc.LocalizeContext(context.Background(), target.Name)
		if err != nil {
			t.Fatalf("localize %s: %v", target.Inst, err)
		}
		n++
		e := res.Point.DistanceMiles(target.Loc)
		errsMi = append(errsMi, e)
		if e > 600 {
			t.Errorf("target %s error %.0f mi is out of any plausible range", target.Inst, e)
		}
		if res.ContainsTruth(target.Loc) {
			contained++
		}
		if res.AreaKm2 <= 0 {
			t.Errorf("target %s empty region", target.Inst)
		}
		if res.TargetHeightMs < 0 {
			t.Errorf("negative height %v", res.TargetHeightMs)
		}
		if len(res.RTTs) != s.N() {
			t.Errorf("RTTs length %d", len(res.RTTs))
		}
		if len(res.Constraints) < s.N() {
			t.Errorf("expected ≥ %d constraints, got %d", s.N(), len(res.Constraints))
		}
	}
	if contained < n/2 {
		t.Errorf("only %d/%d targets contained in their regions", contained, n)
	}
	var sum float64
	for _, e := range errsMi {
		sum += e
	}
	if mean := sum / float64(n); mean > 250 {
		t.Errorf("mean error %.0f mi too high for the default config", mean)
	}
}

func TestLocalizeRejectsLandmarkTarget(t *testing.T) {
	p, lms, _ := testDeployment(t, 3, 0)
	s, err := NewSurvey(p, lms, SurveyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	loc := NewLocalizer(p, s, Config{})
	if _, err := loc.LocalizeContext(context.Background(), lms[0].Addr); err == nil {
		t.Error("localizing a survey landmark should error")
	}
	if _, err := loc.LocalizeContext(context.Background(), "no-such-host.example.com"); err == nil {
		t.Error("unknown target should error")
	}
}

func TestLocalizeAblationsRun(t *testing.T) {
	// Every ablation switch must produce a result (robustness of the
	// pipeline, not accuracy).
	p, lms, target := testDeployment(t, 5, 7)
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		cfg  Config
		opts []LocalizeOption
	}{
		"no-heights":   {cfg: Config{DisableHeights: true}},
		"no-negative":  {cfg: Config{DisableNegative: true}},
		"no-piecewise": {opts: []LocalizeOption{WithoutSource(SourceRouter)}},
		"no-whois":     {cfg: Config{DisableWhois: true}},
		"no-oceans":    {opts: []LocalizeOption{WithoutSource(SourceGeography)}},
	}
	for name, tc := range cases {
		loc := NewLocalizer(p, s, tc.cfg)
		res, err := loc.LocalizeContext(context.Background(), target.Name, tc.opts...)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Region.IsEmpty() {
			t.Errorf("%s: empty region", name)
		}
		if e := res.Point.DistanceMiles(target.Loc); e > 900 {
			t.Errorf("%s: error %.0f mi", name, e)
		}
	}
}

func TestLocalizeWithSecondary(t *testing.T) {
	p, lms, target := testDeployment(t, 5, 12)
	s, err := NewSurvey(p, lms, SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	loc := NewLocalizer(p, s, Config{})
	base, err := loc.LocalizeContext(context.Background(), target.Name)
	if err != nil {
		t.Fatal(err)
	}
	// Pretend a previously localized router 100km from the target has a
	// small RTT to it.
	pr := base.Projection
	routerRegion := geo.Disk(pr.Forward(target.Loc.Destination(0, 80)), 40, 64)
	res, err := loc.LocalizeContext(context.Background(), target.Name, WithSecondary(routerRegion, 2.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Region.IsEmpty() {
		t.Fatal("secondary localization emptied the region")
	}
	if e := res.Point.DistanceMiles(target.Loc); e > 500 {
		t.Errorf("error with secondary landmark %.0f mi", e)
	}
	// The secondary constraint must be present.
	found := false
	for _, c := range res.Constraints {
		if c.Source == "secondary" {
			found = true
		}
	}
	if !found {
		t.Error("secondary constraint missing")
	}
}

func TestResultContainsTruthEmptyRegion(t *testing.T) {
	r := &Result{Region: geo.EmptyRegion(), Projection: geo.NewProjection(geo.Pt(0, 0))}
	if r.ContainsTruth(geo.Pt(0, 0)) {
		t.Error("empty region contains nothing")
	}
}

func TestLandRegionsProject(t *testing.T) {
	pr := geo.NewProjection(geo.Pt(40, -90))
	regs := LandRegions(pr)
	if len(regs) != 2 {
		t.Fatalf("expected 2 land regions, got %d", len(regs))
	}
	for _, r := range regs {
		if r.IsEmpty() {
			t.Error("land region empty after projection")
		}
	}
	// Denver projects inside North America.
	if !regs[0].Contains(pr.Forward(geo.Pt(39.74, -104.99))) {
		t.Error("Denver should be inside the North America outline")
	}
}
