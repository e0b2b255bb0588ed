// PlanetLab evaluation: reproduce the paper's §3 comparison (Figure 3) on
// the simulated 51-node deployment — Octant vs GeoLim vs GeoPing vs
// GeoTrack, leave-one-out — and print the accuracy table.
//
//	go run ./examples/planetlab          # every 3rd node (fast)
//	go run ./examples/planetlab -all     # all 51 nodes
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"octant"
)

func main() {
	log.SetFlags(0)
	all := flag.Bool("all", false, "localize all 51 nodes (slower)")
	flag.Parse()

	world := octant.NewWorld(octant.WorldConfig{Seed: 1})
	prober := octant.NewSimProber(world)
	hosts := world.HostNodes()

	step := 3
	if *all {
		step = 1
	}

	var full []octant.Landmark
	for _, h := range hosts {
		full = append(full, octant.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	fullSurvey, err := octant.NewSurvey(prober, full, octant.SurveyOpts{UseHeights: true})
	if err != nil {
		log.Fatal(err)
	}

	errs := map[string][]float64{}
	for ti := 0; ti < len(hosts); ti += step {
		target := hosts[ti]
		idx := make([]int, 0, len(hosts)-1)
		for i := range hosts {
			if i != ti {
				idx = append(idx, i)
			}
		}
		survey, err := fullSurvey.Subset(idx)
		if err != nil {
			log.Fatal(err)
		}

		if res, err := octant.NewLocalizer(prober, survey, octant.Config{}).LocalizeContext(context.Background(), target.Name); err == nil {
			errs["Octant"] = append(errs["Octant"], res.Point.DistanceMiles(target.Loc))
		}
		if res, err := octant.NewGeoLim(survey).Localize(prober, target.Name, 10); err == nil {
			errs["GeoLim"] = append(errs["GeoLim"], res.Point.DistanceMiles(target.Loc))
		}
		if res, err := octant.NewGeoPing(survey).Localize(prober, target.Name, 10); err == nil {
			errs["GeoPing"] = append(errs["GeoPing"], res.Point.DistanceMiles(target.Loc))
		}
		if res, err := octant.NewGeoTrack(survey).Localize(prober, target.Name, 10); err == nil {
			errs["GeoTrack"] = append(errs["GeoTrack"], res.Point.DistanceMiles(target.Loc))
		}
	}

	fmt.Printf("%-10s %8s %10s %10s\n", "technique", "n", "median mi", "worst mi")
	for _, name := range []string{"Octant", "GeoLim", "GeoPing", "GeoTrack"} {
		es := append([]float64(nil), errs[name]...)
		sort.Float64s(es)
		med := es[len(es)/2]
		fmt.Printf("%-10s %8d %10.1f %10.1f\n", name, len(es), med, es[len(es)-1])
	}
	fmt.Println("\n(paper, real 2006 PlanetLab: Octant 22 / GeoLim 89 / GeoPing 68 / GeoTrack 97 median miles)")
}
