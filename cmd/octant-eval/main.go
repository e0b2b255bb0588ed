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
// It also converts `go test -bench` text output into the JSON the CI bench
// job archives per commit, seeding the performance trajectory:
//
//	go test -run '^$' -bench . -benchmem ./... | octant-eval -bench-json - -commit $SHA -out BENCH_$SHA.json
//
// and gates perf regressions between two archived reports — CI compares a
// commit against its parent's artifact and fails on a >20% ns/op slowdown
// of the named benchmarks:
//
//	octant-eval -bench-old BENCH_parent.json -bench-new BENCH_head.json \
//	    -bench-names Fig1RegionCombination,Localize -max-regress 0.20
//
// The -bulk mode benchmarks bulk localization throughput — a paced
// per-target loop vs the fused LocalizeBatch path over one homogeneous
// batch — emitting bench-format lines for the archive and failing unless
// the fused results are bit-identical to the sequential references:
//
//	octant-eval -bulk | octant-eval -bench-json - -commit $SHA
//
// The -cluster mode load-tests the sharded serving tier over in-process
// fleets: 1/2/4-node scaling legs emitted as ClusterNodes{1,2,4} bench
// lines (gated: 2 nodes must clear -cluster-min-scale × the 1-node
// throughput) followed by a rolling-swap soak that fails on any request
// error, mixed-epoch batch, or cross-node bit-identity violation:
//
//	octant-eval -cluster | octant-eval -bench-json - -commit $SHA
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"octant/internal/core"
	"octant/internal/eval"
	"octant/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("octant-eval: ")
	var (
		fig       = flag.String("fig", "all", "which figure to regenerate: 2, 3, 4, or all")
		seed      = flag.Uint64("seed", 1, "world seed")
		step      = flag.Int("step", 1, "Figure 3: localize every step-th node (1 = all 51)")
		trials    = flag.Int("trials", 2, "Figure 4: random landmark subsets per count")
		landmark  = flag.String("landmark", "rochester", "Figure 2: landmark to calibrate (the paper uses rochester)")
		benchJSON = flag.String("bench-json", "", "convert 'go test -bench' output (file path or - for stdin) to JSON and exit")
		commit    = flag.String("commit", "", "commit hash recorded in -bench-json output")
		out       = flag.String("out", "", "output path for -bench-json (default stdout)")

		benchOld   = flag.String("bench-old", "", "baseline BENCH_<sha>.json for -bench-new comparison")
		benchNew   = flag.String("bench-new", "", "candidate BENCH_<sha>.json compared against -bench-old")
		benchNames = flag.String("bench-names", "Fig1RegionCombination,Localize", "comma-separated benchmark names gated by the comparison")
		maxRegress = flag.Float64("max-regress", 0.20, "fail when a gated benchmark's ns/op regresses by more than this fraction")

		benchReport = flag.String("bench-report", "", "single BENCH_<sha>.json report for -bench-within")
		benchWithin = flag.String("bench-within", "", "cand=base:nsfrac[:allocs] — within -bench-report, fail unless cand's ns/op ≤ base's·(1+nsfrac) and cand adds ≤ allocs allocs/op (default 0); e.g. LocalizeWithHints=Localize:0.05:200")

		bulk        = flag.Bool("bulk", false, "bulk throughput mode: paced per-target loop vs fused LocalizeBatch over one homogeneous batch, emitted as bench lines (pipe into -bench-json); exits non-zero if the fused results are not bit-identical")
		bulkTargets = flag.Int("bulk-targets", 64, "bulk mode: targets per batch (cycles over the 8 held-out hosts)")
		bulkWorkers = flag.Int("bulk-workers", 8, "bulk mode: fused worker count")
		bulkPace    = flag.Duration("bulk-pace", 5*time.Millisecond, "bulk mode: simulated wire time per ping train")

		clusterOn       = flag.Bool("cluster", false, "cluster mode: 1/2/4-node fleet scaling legs (emitted as bench lines) plus a rolling-swap soak; exits non-zero on the scaling gate or any soak violation")
		clusterKeys     = flag.Int("cluster-keys", 64, "cluster mode: unique (target, fingerprint) keys per scaling leg")
		clusterPace     = flag.Duration("cluster-pace", 4*time.Millisecond, "cluster mode: wire time each ping train occupies one of a node's probing lanes (makes per-node measurement capacity the bottleneck)")
		clusterMinScale = flag.Float64("cluster-min-scale", 1.7, "cluster mode: fail unless the 2-node fleet clears this multiple of 1-node throughput")
		clusterMinNode  = flag.Float64("cluster-min-node-speedup", 3, "cluster mode: fail unless the concurrent-measurement 1-node leg clears this multiple of the serialized-measurement baseline's throughput")

		chaosOn       = flag.Bool("chaos", false, "chaos mode: kill/revive landmarks and serve nodes under load; exits non-zero on any client-visible error, missing degraded-mode coverage, unbounded accuracy loss, or failed recovery")
		chaosNodes    = flag.Int("chaos-nodes", 3, "chaos mode: serving-fleet size (≥ 3)")
		chaosDuration = flag.Duration("chaos-duration", 3*time.Second, "chaos mode: total fault-injection window (split across landmark-fault, node-kill, and recovery phases)")
		chaosFrac     = flag.Float64("chaos-landmarks", 0.2, "chaos mode: fraction of survey landmarks downed during the landmark-fault phase")

		hintsOn = flag.Bool("hints", false, "hints mode: score the rDNS/geo-DB evidence stages on a truthful hint world (gate: hinted median ≤ baseline) and a poisoned one (gate: cross-validation drops fire and the median stays within 10% of baseline), emitted as bench lines")
	)
	flag.Parse()

	if *chaosOn {
		if err := runChaos(*seed, *chaosNodes, *chaosDuration, *chaosFrac); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *clusterOn {
		if err := runCluster(*seed, *clusterKeys, *clusterPace, *clusterMinScale, *clusterMinNode); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *bulk {
		if err := runBulk(*seed, *bulkTargets, *bulkWorkers, *bulkPace); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *hintsOn {
		if err := runHints(*seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *benchJSON != "" {
		if err := emitBenchJSON(*benchJSON, *commit, *out); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchOld != "" || *benchNew != "" {
		if *benchOld == "" || *benchNew == "" {
			log.Fatal("-bench-old and -bench-new must be given together")
		}
		if err := compareBench(*benchOld, *benchNew, strings.Split(*benchNames, ","), *maxRegress); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *benchWithin != "" || *benchReport != "" {
		if *benchWithin == "" || *benchReport == "" {
			log.Fatal("-bench-within and -bench-report must be given together")
		}
		if err := compareWithin(*benchReport, *benchWithin); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("building deployment (seed %d)...\n", *seed)
	d, err := eval.NewDeployment(*seed)
	if err != nil {
		log.Fatal(err)
	}

	if *fig == "2" || *fig == "all" {
		f, err := d.RunFig2(*landmark)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Println(f.Format())
	}

	if *fig == "3" || *fig == "all" {
		fmt.Println("\nFigure 3 — localization error CDF (leave-one-out, miles)")
		res, err := d.RunFig3(core.Config{}, *step)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.FormatCDF())
		fmt.Println("§3 accuracy table:")
		fmt.Println(stats.FormatTable(res.Summaries(), "mi"))
		for _, row := range res.Rows {
			if row.HasRegion {
				fmt.Printf("%-10s region contained truth for %d/%d targets\n",
					row.Name, row.Contained, res.Targets)
			}
		}
	}

	if *fig == "4" || *fig == "all" {
		fmt.Println("\nFigure 4 — % of targets inside the estimated region vs landmarks")
		pts, err := d.RunFig4(core.Config{}, nil, *trials, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(eval.FormatFig4(pts))
	}
}

// benchResult is one parsed benchmark line. Metrics maps unit → value for
// every "value unit" pair the line reports (ns/op, B/op, allocs/op, plus
// any custom b.ReportMetric units like targets/s).
type benchResult struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// benchReport is the archived BENCH_<sha>.json payload.
type benchReport struct {
	Commit  string        `json:"commit,omitempty"`
	Go      string        `json:"go"`
	GOOS    string        `json:"goos"`
	GOARCH  string        `json:"goarch"`
	Results []benchResult `json:"results"`
}

// emitBenchJSON parses `go test -bench` text from src ("-" = stdin) and
// writes the JSON report to outPath (empty = stdout).
func emitBenchJSON(src, commit, outPath string) error {
	var r io.Reader = os.Stdin
	if src != "-" {
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	report := benchReport{
		Commit: commit,
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		res, ok := parseBenchLine(sc.Text())
		if ok {
			report.Results = append(report.Results, res)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(report.Results) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", src)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}

// compareBench loads two archived bench reports and fails when any gated
// benchmark's ns/op regressed by more than maxRegress. Names absent from
// either report are skipped with a note (benchmarks come and go), so the
// gate never blocks a commit for renaming or adding benches.
func compareBench(oldPath, newPath string, names []string, maxRegress float64) error {
	oldNs, err := loadBenchNs(oldPath)
	if err != nil {
		return err
	}
	newNs, err := loadBenchNs(newPath)
	if err != nil {
		return err
	}
	var failures []string
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		was, okOld := oldNs[name]
		now, okNew := newNs[name]
		if !okOld || !okNew {
			fmt.Printf("bench-compare: %-24s skipped (missing from %s)\n", name,
				map[bool]string{true: "baseline", false: "candidate"}[!okOld])
			continue
		}
		change := now/was - 1
		fmt.Printf("bench-compare: %-24s %12.0f → %12.0f ns/op  (%+.1f%%)\n", name, was, now, 100*change)
		if change > maxRegress {
			failures = append(failures, fmt.Sprintf("%s regressed %.1f%% (budget %.0f%%)", name, 100*change, 100*maxRegress))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regression: %s", strings.Join(failures, "; "))
	}
	return nil
}

// compareWithin gates one benchmark against another from the SAME report:
// spec is "cand=base:nsfrac[:allocs]". It fails when cand's best ns/op
// exceeds base's by more than nsfrac, or when cand allocates more than
// allocs extra allocs/op (default 0). This is how CI bounds the cost of
// the hint stages: LocalizeWithHints=Localize:0.05:200.
func compareWithin(reportPath, spec string) error {
	eq := strings.Index(spec, "=")
	if eq <= 0 {
		return fmt.Errorf("bad -bench-within %q (want cand=base:nsfrac[:allocs])", spec)
	}
	cand := spec[:eq]
	rest := strings.Split(spec[eq+1:], ":")
	if len(rest) < 2 || len(rest) > 3 {
		return fmt.Errorf("bad -bench-within %q (want cand=base:nsfrac[:allocs])", spec)
	}
	base := rest[0]
	nsFrac, err := strconv.ParseFloat(rest[1], 64)
	if err != nil {
		return fmt.Errorf("bad nsfrac in %q: %w", spec, err)
	}
	maxExtraAllocs := 0.0
	if len(rest) == 3 {
		if maxExtraAllocs, err = strconv.ParseFloat(rest[2], 64); err != nil {
			return fmt.Errorf("bad allocs in %q: %w", spec, err)
		}
	}
	stats, err := loadBenchStats(reportPath)
	if err != nil {
		return err
	}
	cs, ok := stats[cand]
	if !ok {
		return fmt.Errorf("benchmark %s missing from %s", cand, reportPath)
	}
	bs, ok := stats[base]
	if !ok {
		return fmt.Errorf("benchmark %s missing from %s", base, reportPath)
	}
	if !cs.hasAllocs || !bs.hasAllocs {
		// The alloc budget is half the gate; a report missing allocs/op
		// (benches run without -benchmem) must fail loudly, not compare
		// against a phantom 0.
		return fmt.Errorf("%s lacks allocs/op for %s and/or %s — run the benchmarks with -benchmem", reportPath, cand, base)
	}
	change := cs.ns/bs.ns - 1
	fmt.Printf("bench-within: %s %.0f ns/op vs %s %.0f ns/op (%+.1f%%, budget %+.0f%%)\n",
		cand, cs.ns, base, bs.ns, 100*change, 100*nsFrac)
	fmt.Printf("bench-within: %s %.0f allocs/op vs %s %.0f allocs/op (budget +%g)\n",
		cand, cs.allocs, base, bs.allocs, maxExtraAllocs)
	if change > nsFrac {
		return fmt.Errorf("%s is %.1f%% slower than %s (budget %.0f%%)", cand, 100*change, base, 100*nsFrac)
	}
	if cs.allocs > bs.allocs+maxExtraAllocs {
		return fmt.Errorf("%s allocates %.0f/op, %s %.0f/op (budget +%g)", cand, cs.allocs, base, bs.allocs, maxExtraAllocs)
	}
	return nil
}

// benchStat is a benchmark's best observed numbers in one report.
// hasAllocs distinguishes "0 allocs/op" from "run without -benchmem".
type benchStat struct {
	ns, allocs float64
	hasAllocs  bool
}

// loadBenchStats maps base benchmark names (GOMAXPROCS suffix stripped)
// to their best observed ns/op and allocs/op in a report.
func loadBenchStats(path string) (map[string]benchStat, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var report benchReport
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]benchStat)
	for _, r := range report.Results {
		ns, ok := r.Metrics["ns/op"]
		if !ok {
			continue
		}
		name := r.Name
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		allocs, hasAllocs := r.Metrics["allocs/op"]
		prev, seen := out[name]
		if !seen {
			out[name] = benchStat{ns: ns, allocs: allocs, hasAllocs: hasAllocs}
			continue
		}
		if ns < prev.ns {
			prev.ns = ns
		}
		// Min-merge allocs only across lines that actually reported them;
		// a -benchmem-less line must not masquerade as a 0-alloc best.
		if hasAllocs && (!prev.hasAllocs || allocs < prev.allocs) {
			prev.allocs, prev.hasAllocs = allocs, true
		}
		out[name] = prev
	}
	return out, nil
}

// loadBenchNs maps base benchmark names to their best observed ns/op.
func loadBenchNs(path string) (map[string]float64, error) {
	stats, err := loadBenchStats(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(stats))
	for name, s := range stats {
		out[name] = s.ns
	}
	return out, nil
}

// parseBenchLine parses one "BenchmarkX-8  100  123 ns/op  4 B/op …" line.
func parseBenchLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	res := benchResult{
		Name:    strings.TrimPrefix(fields[0], "Benchmark"),
		Iters:   iters,
		Metrics: make(map[string]float64, (len(fields)-2)/2),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	if len(res.Metrics) == 0 {
		return benchResult{}, false
	}
	return res, true
}
