package octant_test

import (
	"context"
	"fmt"

	"octant"
)

// ExampleLocalizer demonstrates a complete localization against the
// simulated Internet: build a world, survey the landmarks, and localize a
// target. Everything is deterministic for a given seed.
func Example() {
	world := octant.NewWorld(octant.WorldConfig{Seed: 1})
	prober := octant.NewSimProber(world)
	hosts := world.HostNodes()

	target := hosts[1] // planetlab2.cs.cornell.edu
	var landmarks []octant.Landmark
	for i, h := range hosts {
		if i == 1 {
			continue
		}
		landmarks = append(landmarks, octant.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}

	survey, err := octant.NewSurvey(prober, landmarks, octant.SurveyOpts{UseHeights: true})
	if err != nil {
		panic(err)
	}
	loc := octant.NewLocalizer(prober, survey, octant.Config{})
	res, err := loc.LocalizeContext(context.Background(), target.Name)
	if err != nil {
		panic(err)
	}
	fmt.Printf("landmarks: %d\n", survey.N())
	fmt.Printf("region is non-empty: %v\n", !res.Region.IsEmpty())
	fmt.Printf("error under 350 miles: %v\n", res.Point.DistanceMiles(target.Loc) < 350)
	// Output:
	// landmarks: 50
	// region is non-empty: true
	// error under 350 miles: true
}

// registrySource is a custom EvidenceSource: an internal asset registry
// that knows roughly where some hosts are racked. Sources observe the
// request's measurement state (RTTs, heights, the shared projection) and
// return weighted constraints; the pipeline handles weighting options
// and provenance.
type registrySource struct {
	db map[string]octant.Point
}

func (r registrySource) Name() string { return "registry" }

func (r registrySource) Constraints(_ context.Context, req *octant.EvidenceRequest) ([]octant.Constraint, octant.SourceReport, error) {
	rep := octant.SourceReport{Source: "registry"}
	loc, ok := r.db[req.Target]
	if !ok {
		rep.Skipped = "no registry record"
		return nil, rep, nil
	}
	c := octant.PositiveDisk(req.PCtx.Proj, loc, 80, 0.7, "registry:"+req.Target)
	return []octant.Constraint{c}, rep, nil
}

// ExampleEvidenceSource plugs a custom evidence source into one request:
// the registry's positive prior joins the latency, router, and WHOIS
// constraints in the same weighted system, and WithExplain shows it in
// the provenance.
func ExampleEvidenceSource() {
	world := octant.NewWorld(octant.WorldConfig{Seed: 1})
	prober := octant.NewSimProber(world)
	hosts := world.HostNodes()

	target := hosts[0]
	var landmarks []octant.Landmark
	for _, h := range hosts[1:] {
		landmarks = append(landmarks, octant.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	survey, err := octant.NewSurvey(prober, landmarks, octant.SurveyOpts{UseHeights: true})
	if err != nil {
		panic(err)
	}
	loc := octant.NewLocalizer(prober, survey, octant.Config{})

	registry := registrySource{db: map[string]octant.Point{target.Name: target.Loc}}
	res, err := loc.LocalizeContext(context.Background(), target.Name,
		octant.WithEvidenceSource(registry),
		octant.WithExplain(),
	)
	if err != nil {
		panic(err)
	}
	for _, rep := range res.Provenance.Sources {
		if rep.Source == "registry" {
			fmt.Printf("registry contributed %d constraint(s)\n", rep.Constraints)
		}
	}
	fmt.Printf("error under 200 miles: %v\n", res.Point.DistanceMiles(target.Loc) < 200)
	// Output:
	// registry contributed 1 constraint(s)
	// error under 200 miles: true
}

// ExampleBatchEngine localizes several targets concurrently through the
// public facade: the batch engine fans them across a worker pool sharing
// one survey, and results come back in submission order via Collect.
func ExampleBatchEngine() {
	world := octant.NewWorld(octant.WorldConfig{Seed: 1})
	prober := octant.NewSimProber(world)
	hosts := world.HostNodes()

	targets := []string{hosts[0].Name, hosts[1].Name, hosts[2].Name}
	var landmarks []octant.Landmark
	for _, h := range hosts[3:] {
		landmarks = append(landmarks, octant.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	survey, err := octant.NewSurvey(prober, landmarks, octant.SurveyOpts{UseHeights: true})
	if err != nil {
		panic(err)
	}
	loc := octant.NewLocalizer(prober, survey, octant.Config{})

	engine := octant.NewBatchEngine(loc, octant.BatchOptions{Workers: 4})
	results, errs := engine.Collect(context.Background(), targets)
	for i, t := range targets {
		fmt.Printf("%s ok: %v\n", t, errs[i] == nil && !results[i].Region.IsEmpty())
	}
	// Output:
	// planetlab1.csail.mit.edu ok: true
	// planetlab2.cs.cornell.edu ok: true
	// planetlab1.cs.rochester.edu ok: true
}

// ExampleSolve shows the constraint algebra directly: an annulus around a
// landmark ("between 40 and 150 km away"), solved for a region.
func ExampleSolve() {
	pr := octant.NewProjection(octant.Pt(42.44, -76.50))
	cons := []octant.Constraint{
		octant.PositiveDisk(pr, octant.Pt(42.44, -76.50), 150, 1, "landmark"),
		octant.NegativeDisk(pr, octant.Pt(42.44, -76.50), 40, 1, "landmark/neg"),
	}
	sol, err := octant.Solve(cons, octant.SolverOpts{MinAreaKm2: 100})
	if err != nil {
		panic(err)
	}
	fmt.Printf("annulus excludes the centre: %v\n", !sol.Region.Contains(pr.Forward(octant.Pt(42.44, -76.50))))
	// Output:
	// annulus excludes the centre: true
}
