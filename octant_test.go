package octant_test

import (
	"context"
	"math"
	"testing"

	"octant"
)

// TestPublicAPIEndToEnd drives a complete localization through the public
// façade only, as a downstream user would.
func TestPublicAPIEndToEnd(t *testing.T) {
	world := octant.NewWorld(octant.WorldConfig{Seed: 2})
	prober := octant.NewSimProber(world)
	hosts := world.HostNodes()

	target := hosts[5]
	var landmarks []octant.Landmark
	for i, h := range hosts {
		if i == 5 {
			continue
		}
		landmarks = append(landmarks, octant.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	survey, err := octant.NewSurvey(prober, landmarks, octant.SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	loc := octant.NewLocalizer(prober, survey, octant.Config{})
	res, err := loc.LocalizeContext(context.Background(), target.Name)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Point.DistanceMiles(target.Loc); e > 600 {
		t.Errorf("error %.0f mi out of plausible range", e)
	}
	if res.AreaKm2 <= 0 {
		t.Error("empty region")
	}

	// Baselines run through the façade too.
	if _, err := octant.NewGeoLim(survey).Localize(prober, target.Name, 10); err != nil {
		t.Errorf("GeoLim: %v", err)
	}
	if _, err := octant.NewGeoPing(survey).Localize(prober, target.Name, 10); err != nil {
		t.Errorf("GeoPing: %v", err)
	}
	if _, err := octant.NewGeoTrack(survey).Localize(prober, target.Name, 10); err != nil {
		t.Errorf("GeoTrack: %v", err)
	}
}

func TestPublicGeometryHelpers(t *testing.T) {
	p := octant.Pt(42.44, -76.50)
	q := octant.Pt(40.71, -74.01)
	if d := p.DistanceKm(q); d < 250 || d > 320 {
		t.Errorf("Ithaca–NYC distance %v km", d)
	}
	pr := octant.NewProjection(p)
	a := octant.Disk(pr.Forward(p), 100, 64)
	b := octant.Disk(pr.Forward(q), 100, 64)
	if !octant.Intersect(a, b, nil).IsEmpty() {
		t.Error("100km disks around Ithaca and NYC should not intersect")
	}
	u := octant.Union(a, b, nil)
	want := 2 * math.Pi * 100 * 100
	if got := u.Area(); math.Abs(got-want) > want*0.03 {
		t.Errorf("union area %v, want %v", got, want)
	}
	if got := octant.Subtract(a, b, nil).Area(); math.Abs(got-a.Area()) > 1 {
		t.Error("disjoint subtract should be identity")
	}
	if octant.Buffer(a, 10, 0).Area() <= a.Area() {
		t.Error("dilation should grow")
	}
	// Latency conversion round trip.
	if got := octant.LatencyToMaxDistanceKm(octant.DistanceToMinLatencyMs(500)); math.Abs(got-500) > 1e-9 {
		t.Errorf("latency conversion round trip = %v", got)
	}
	// Constraint builders compose with Solve.
	cons := []octant.Constraint{
		octant.PositiveDisk(pr, p, 150, 1, "a"),
		octant.NegativeDisk(pr, p, 40, 1, "a/neg"),
	}
	sol, err := octant.Solve(cons, octant.SolverOpts{MinAreaKm2: 100})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Region.IsEmpty() {
		t.Error("annulus solve empty")
	}
	if sol.Region.Contains(pr.Forward(p)) {
		t.Error("negative centre should be excluded")
	}
}

func TestDefaultSitesExported(t *testing.T) {
	if len(octant.DefaultSites) != 51 {
		t.Errorf("DefaultSites = %d, want 51", len(octant.DefaultSites))
	}
	if octant.DefaultSites[1].Inst != "cornell" {
		t.Errorf("unexpected site order: %v", octant.DefaultSites[1])
	}
}

func TestNewDeploymentFacade(t *testing.T) {
	d, err := octant.NewDeployment(9)
	if err != nil {
		t.Fatal(err)
	}
	if d.Survey.N() != 51 {
		t.Errorf("deployment survey N = %d", d.Survey.N())
	}
}
