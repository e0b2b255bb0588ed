// Command octant-bench is the repository's end-to-end benchmark. It
// builds real serving stacks in-process from the public constructors,
// drives them over loopback HTTP with one of four named workloads,
// checks every answer against an independent oracle, and prints every
// metric by name and unit. An untraced run reports the end-to-end
// metrics; a traced run times the calls into each layer from outside
// and reports the per-layer ledger. See ../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		spinIdle()
	}
	os.Exit(mainExit())
}

func mainExit() int {
	var (
		workload = flag.String("workload", "", "solve_cold | cache_hot | batch_stream | fleet_open")
		seed     = flag.Uint64("seed", 1, "seed of the request order, key sequence and arrival schedule")
		seconds  = flag.Float64("seconds", 20, "measured time of the run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		out      = flag.String("out", "", "also append the run's full result, as one JSON line, to this file")
		compare  = flag.Bool("compare", false, "compare two files of results: -compare A B")
	)
	flag.Parse()
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "octant-bench: "+format+"\n", args...)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail("usage: octant-bench -compare A B")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail("%v", err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fail("need -seconds > 0 and -trace 0|1")
	}
	awake, err := keepAwake()
	if err != nil {
		return fail("%v", err)
	}
	defer awake.stop()
	res, err := run(newConfig(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1))
	if err != nil {
		return fail("%v", err)
	}
	report(os.Stdout, res)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			return fail("%v", err)
		}
	}
	if err := printLast(res); err != nil {
		return fail("%v", err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints every metric of the run by name and unit, in the order
// the tables declare them, after what the figures were taken from.
func report(w io.Writer, res *result) {
	kind, defs := "end-to-end", endToEnd
	if res.Traced {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d %s: attempted=%d failed=%d\n", res.Workload, res.Seed, kind, res.Attempted, res.Failed)
	fmt.Fprintf(w, "# whole run: latency tail p%.1f %.6g ms, %.6g localizations/s (diagnostics, not metrics)\n",
		res.TailPercentile, res.TailMs, res.MeanPerS)
	for _, d := range endToEnd {
		if vals, ok := res.Windows[d.name]; ok {
			per := "windows"
			if d.name == "setup_s" {
				per = "boots"
			}
			s := sorted(vals)
			fmt.Fprintf(w, "# %s over %d %s: min %.5g, deciles 1/5/9 %.5g %.5g %.5g, max %.5g\n", d.name, len(s), per,
				s[0], quantile(s, 0.1), quantile(s, 0.5), quantile(s, 0.9), s[len(s)-1])
		}
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

// printLast prints the one-line JSON result the driver reads.
func printLast(res *result) error {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// appendResult adds the run to a file of results, one JSON object per
// line, which is what -compare reads: a series of runs is one file.
func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
