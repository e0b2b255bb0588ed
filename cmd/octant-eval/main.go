// Command octant-eval regenerates the paper's evaluation figures over the
// simulated 51-node PlanetLab deployment:
//
//	octant-eval -fig 2   # latency/distance scatter + hull + spline (Fig. 2)
//	octant-eval -fig 3   # error CDF, Octant vs GeoLim/GeoPing/GeoTrack (Fig. 3)
//	octant-eval -fig 4   # region containment vs landmark count (Fig. 4)
//	octant-eval -fig all # everything
//
// Flags -seed, -step (Fig. 3 target stride) and -trials (Fig. 4 subsets per
// count) trade fidelity for speed.
//
// Two evaluations beyond the paper's figures ride along, each printing
// plain lines and exiting non-zero when its gate fails:
//
//	octant-eval -hints   # rDNS/geo-DB evidence accuracy, truthful and poisoned worlds
//	octant-eval -chaos   # fault-injection soak over a local fleet
//
// Performance is not judged here: benchmarks/run.sh is the repository's
// one referee (see docs/PERFORMANCE.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"octant/internal/core"
	"octant/internal/eval"
	"octant/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "octant-eval:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, run the selected evaluation,
// write its report to stdout. A flag error (unknown flag, bad value) is
// returned after the usage text went to stderr, before anything runs.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("octant-eval", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "which figure to regenerate: 2, 3, 4, or all")
		seed     = fs.Uint64("seed", 1, "world seed")
		step     = fs.Int("step", 1, "Figure 3: localize every step-th node (1 = all 51)")
		trials   = fs.Int("trials", 2, "Figure 4: random landmark subsets per count")
		landmark = fs.String("landmark", "rochester", "Figure 2: landmark to calibrate (the paper uses rochester)")

		chaosOn       = fs.Bool("chaos", false, "chaos mode: kill/revive landmarks and serve nodes under load; exits non-zero on any client-visible error, missing degraded-mode coverage, unbounded accuracy loss, or failed recovery")
		chaosNodes    = fs.Int("chaos-nodes", 3, "chaos mode: serving-fleet size (≥ 3)")
		chaosDuration = fs.Duration("chaos-duration", 3*time.Second, "chaos mode: total fault-injection window (split across landmark-fault, node-kill, and recovery phases)")
		chaosFrac     = fs.Float64("chaos-landmarks", 0.2, "chaos mode: fraction of survey landmarks downed during the landmark-fault phase")

		hintsOn = fs.Bool("hints", false, "hints mode: score the rDNS/geo-DB evidence stages on a truthful hint world (gate: hinted median ≤ baseline) and a poisoned one (gate: cross-validation drops fire and the median stays within 10% of baseline)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *fig {
	case "2", "3", "4", "all":
	default:
		return fmt.Errorf("-fig %q: want 2, 3, 4, or all", *fig)
	}

	if *chaosOn {
		return runChaos(stdout, *seed, *chaosNodes, *chaosDuration, *chaosFrac)
	}
	if *hintsOn {
		return runHints(stdout, *seed)
	}

	fmt.Fprintf(stdout, "building deployment (seed %d)...\n", *seed)
	d, err := eval.NewDeployment(*seed)
	if err != nil {
		return err
	}

	if *fig == "2" || *fig == "all" {
		f, err := d.RunFig2(*landmark)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, f.Format())
	}

	if *fig == "3" || *fig == "all" {
		fmt.Fprintln(stdout, "\nFigure 3 — localization error CDF (leave-one-out, miles)")
		res, err := d.RunFig3(core.Config{}, *step)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.FormatCDF())
		fmt.Fprintln(stdout, "§3 accuracy table:")
		fmt.Fprintln(stdout, stats.FormatTable(res.Summaries(), "mi"))
		for _, row := range res.Rows {
			if row.HasRegion {
				fmt.Fprintf(stdout, "%-10s region contained truth for %d/%d targets\n",
					row.Name, row.Contained, res.Targets)
			}
		}
	}

	if *fig == "4" || *fig == "all" {
		fmt.Fprintln(stdout, "\nFigure 4 — % of targets inside the estimated region vs landmarks")
		pts, err := d.RunFig4(core.Config{}, nil, *trials, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, eval.FormatFig4(pts))
	}
	return nil
}
