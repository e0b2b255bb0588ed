// Command octant localizes a host in the simulated Internet with the full
// Octant pipeline and prints the point estimate, the estimated location
// region, and optionally its GeoJSON.
//
// Usage:
//
//	octant -target planetlab2.cs.cornell.edu [-seed 1] [-probes 10]
//	       [-geojson out.json] [-disable heights,negative,piecewise,whois,oceans]
//	       [-timeout 30s] [-explain]
//
// -timeout bounds the whole localization through the context-first v2
// API (the measurement aborts at its next probe when the deadline
// passes); -disable piecewise and -disable oceans switch the router and
// geography evidence sources off per request, the other three are model
// switches; -explain prints the per-source provenance table.
//
// Several comma-separated targets take the same path — -target is
// -targets of one — and report one line each instead of the detailed
// form:
//
//	octant -targets host1,host2,host3 -parallel 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/netsim"
	"octant/internal/probe"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "octant:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, hold the targets out of the
// survey, localize them through the batch engine, and write the report to
// stdout — the detailed one for a single result, one line each for
// several. -target is -targets of one.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("octant", flag.ContinueOnError)
	var (
		target   = fs.String("target", "planetlab2.cs.cornell.edu", "host name of the target (one of the simulated sites)")
		targets  = fs.String("targets", "", "comma-separated target list; overrides -target")
		parallel = fs.Int("parallel", 4, "concurrent localizations for multi-target runs")
		seed     = fs.Uint64("seed", 1, "world seed")
		probes   = fs.Int("probes", 10, "ping probes per measurement")
		geoOut   = fs.String("geojson", "", "write the estimated region as GeoJSON to this file (single target)")
		disable  = fs.String("disable", "", "comma-separated mechanisms to disable: heights,negative,piecewise,whois,oceans")
		timeout  = fs.Duration("timeout", 0, "overall localization deadline per target, enforced through the request context (0 = none)")
		explain  = fs.Bool("explain", false, "print the per-source evidence provenance table")
		list     = fs.Bool("list", false, "list available target hosts and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	world := netsim.NewWorld(netsim.Config{Seed: *seed})
	prober := probe.NewSimProber(world)
	hosts := world.HostNodes()

	if *list {
		for _, h := range hosts {
			fmt.Fprintf(stdout, "%-40s %-16s %s\n", h.Name, h.Inst, h.Loc)
		}
		return nil
	}

	// Model switches ride the Config; evidence-source switches and
	// provenance ride the v2 per-request options; the timeout rides each
	// target's context in the engine.
	cfg := core.Config{Probes: *probes}
	var opts []core.LocalizeOption
	for _, d := range strings.Split(*disable, ",") {
		switch strings.TrimSpace(d) {
		case "":
		case "heights":
			cfg.DisableHeights = true
		case "negative":
			cfg.DisableNegative = true
		case "piecewise":
			opts = append(opts, core.WithoutSource(core.SourceRouter))
		case "whois":
			cfg.DisableWhois = true
		case "oceans":
			opts = append(opts, core.WithoutSource(core.SourceGeography))
		default:
			return fmt.Errorf("unknown mechanism %q (want heights|negative|piecewise|whois|oceans)", d)
		}
	}

	if *explain {
		opts = append(opts, core.WithExplain())
	}

	if *targets == "" {
		*targets = *target
	}
	want := make(map[string]bool)
	var names []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" && !want[t] {
			want[t] = true
			names = append(names, t)
		}
	}
	if len(names) == 0 {
		return errors.New("no targets")
	}
	// Every requested target is held out of the survey; the remaining hosts
	// are the landmarks.
	truthByName := make(map[string]*netsim.Node, len(names))
	var landmarks []core.Landmark
	for _, h := range hosts {
		if want[h.Name] {
			truthByName[h.Name] = h
			continue
		}
		landmarks = append(landmarks, core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	for _, t := range names {
		if truthByName[t] == nil {
			return fmt.Errorf("unknown target %q (use -list to see hosts)", t)
		}
	}
	survey, err := core.NewSurvey(prober, landmarks, core.SurveyOpts{Probes: *probes, UseHeights: true})
	if err != nil {
		return err
	}
	eng := batch.New(core.NewLocalizer(prober, survey, cfg),
		batch.Options{Workers: *parallel, TargetTimeout: *timeout})
	results, errs := eng.Collect(context.Background(), names, opts...)

	if len(names) == 1 {
		if errs[0] != nil {
			return errs[0]
		}
		return reportOne(stdout, names[0], results[0], truthByName[names[0]], world, survey, *geoOut)
	}
	for i, t := range names {
		if errs[i] != nil {
			fmt.Fprintf(stdout, "%-40s ERROR %v\n", t, errs[i])
			continue
		}
		res, truth := results[i], truthByName[t]
		fmt.Fprintf(stdout, "%-40s %s  err %6.1f mi  area %8.0f km²  contains %v\n",
			t, res.Point, res.Point.DistanceMiles(truth.Loc), res.AreaKm2, res.ContainsTruth(truth.Loc))
		if res.Provenance != nil {
			for _, rep := range res.Provenance.Sources {
				fmt.Fprintf(stdout, "    %-12s %3d constraints  w %7.3f  area %12.0f km²  %s\n",
					rep.Source, rep.Constraints, rep.Weight, rep.AreaKm2, rep.Skipped)
			}
			for _, dh := range res.Provenance.DroppedHints {
				fmt.Fprintf(stdout, "    dropped %-12s %s\n", dh.Hint, dh.Reason)
			}
			if d := res.Provenance.Disagreement; d != nil && d.Conflict {
				fmt.Fprintf(stdout, "    disagreement %.0f km CONFLICT\n", d.DisagreementKm)
			}
		}
	}
	s := eng.Stats()
	fmt.Fprintf(stdout, "\n%d targets, %d workers, %d landmarks, p50 %.0f ms, p99 %.0f ms\n",
		len(names), s.Workers, survey.N(), s.P50Ms, s.P99Ms)
	return nil
}

// reportOne prints the detailed report for a lone result: estimate against
// truth, the solved height, the provenance table when the request asked
// to explain itself, and the region as GeoJSON when geoOut names a file.
func reportOne(stdout io.Writer, target string, res *core.Result, truth *netsim.Node, world *netsim.World, survey *core.Survey, geoOut string) error {
	fmt.Fprintf(stdout, "target          %s\n", target)
	fmt.Fprintf(stdout, "landmarks       %d (κ=%.2f)\n", survey.N(), survey.Kappa)
	fmt.Fprintf(stdout, "point estimate  %s\n", res.Point)
	fmt.Fprintf(stdout, "true location   %s\n", truth.Loc)
	fmt.Fprintf(stdout, "error           %.1f miles (%.1f km)\n",
		res.Point.DistanceMiles(truth.Loc), res.Point.DistanceKm(truth.Loc))
	fmt.Fprintf(stdout, "region area     %.0f km² (%.0f mi²), %d ring(s)\n",
		res.AreaKm2, res.AreaKm2*0.386102, len(res.Region.Rings))
	fmt.Fprintf(stdout, "contains truth  %v\n", res.ContainsTruth(truth.Loc))
	fmt.Fprintf(stdout, "target height   %.2f ms (true access delay %.2f ms)\n",
		res.TargetHeightMs, world.AccessHeight(truth.ID))
	fmt.Fprintf(stdout, "constraints     %d\n", len(res.Constraints))
	if res.Provenance != nil {
		fmt.Fprintf(stdout, "\nevidence provenance (%d constraints, %.2f ms measuring, %.2f ms solving):\n",
			res.Provenance.TotalConstraints, res.Provenance.MeasureMs, res.Provenance.SolveMs)
		fmt.Fprintf(stdout, "  %-12s %11s %8s %14s %9s %10s  %s\n", "source", "constraints", "weight", "area km²", "ms", "measure ms", "note")
		for _, rep := range res.Provenance.Sources {
			fmt.Fprintf(stdout, "  %-12s %11d %8.3f %14.0f %9.2f %10.2f  %s\n",
				rep.Source, rep.Constraints, rep.Weight, rep.AreaKm2, rep.ElapsedMs, rep.MeasureMs, rep.Skipped)
		}
		for _, dh := range res.Provenance.DroppedHints {
			fmt.Fprintf(stdout, "  dropped %-12s %s\n", dh.Hint, dh.Reason)
		}
		if d := res.Provenance.Disagreement; d != nil {
			fmt.Fprintf(stdout, "  disagreement    %.0f km (hint↔geodb %.0f, hint↔latency %.0f, geodb↔latency %.0f)",
				d.DisagreementKm, d.HintGeoDBKm, d.HintLatencyKm, d.GeoDBLatencyKm)
			if d.Conflict {
				fmt.Fprintf(stdout, "  CONFLICT")
			}
			fmt.Fprintln(stdout)
		}
	}
	if geoOut == "" {
		return nil
	}
	props := map[string]any{
		"target":  target,
		"area_mi": res.AreaKm2 * 0.386102,
	}
	js, err := res.Region.ToGeoJSON(res.Projection, props)
	if err != nil {
		return err
	}
	if err := os.WriteFile(geoOut, js, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "geojson         %s (%d bytes)\n", geoOut, len(js))
	return nil
}
