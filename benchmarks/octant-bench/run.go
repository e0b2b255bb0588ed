package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one run of one workload. The command line sets the first
// four fields and newConfig derives the rest; the smoke test shrinks
// them.
type config struct {
	workload string
	seed     uint64        // request order, key sequence, arrival schedule
	seconds  time.Duration // total measured time
	trace    bool
	boots    int           // cold boots behind setup_s (one more is made first and discarded)
	ladderN  int           // sample requests per ladder rung (traced run)
	epoch    time.Duration // a traced run alternates segments of this length without and with spans
	traceOut string        // where the traced run writes its spans
}

// newConfig sizes a run from its length: a ladder that takes about as
// long as the traced run's segments do (three samples per rung per
// second: 60 at the benchmark's 20 s).
func newConfig(workload string, seed uint64, seconds time.Duration, trace bool) config {
	return config{workload: workload, seed: seed, seconds: seconds, trace: trace, boots: 25,
		ladderN: max(3, int(3*seconds.Seconds())), epoch: 2 * time.Second,
		traceOut: filepath.Join(".bench_build", "trace-"+workload+".json")}
}

// result is what one run reports.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	NProc     int                    `json:"nproc"`
	Go        string                 `json:"go"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Windows holds each windowed end-to-end metric's value in every
	// window, in time order (for setup_s, in every boot): what the
	// reported figure is the best decile of. Printed in summary with
	// the run, not kept in files.
	Windows map[string][]float64 `json:"-"`
	// TailMs is the latency tail pooled over the run's requests and
	// TailPercentile the percentile it could resolve; MeanPerS is the
	// plain rate over the whole measured time. Diagnostics: see README.md
	// for why none of them is an end-to-end metric.
	TailMs         float64 `json:"latency_tail_ms"`
	TailPercentile float64 `json:"tail_percentile"`
	MeanPerS       float64 `json:"mean_per_s"`
	// Problems lists every failed answer check and every workload-shape
	// assertion that did not hold; any entry makes the run incorrect.
	Problems []string `json:"problems,omitempty"`
	// TraceSummary is the traced run's spans grouped by name.
	TraceSummary []spanStat `json:"trace_summary,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// run executes one workload, untraced for the end-to-end metrics or
// traced for the per-layer ledger.
func run(cfg config) (*result, error) {
	wl, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Traced: cfg.trace,
		NProc: runtime.NumCPU(), Go: runtime.Version()}
	// An untraced run is one segment. A traced run has spent about half
	// its time on the ladder, and spends the other half on short segments
	// that record spans in turn: the two kinds then see the same machine
	// state and their difference is the cost of tracing. It needs one of
	// each.
	spans := []bool{false}
	per := cfg.seconds
	if cfg.trace {
		n := int(cfg.seconds / 2 / cfg.epoch)
		if n < 2 {
			return nil, fmt.Errorf("%s: a traced run spends half its time on segments of %v, without spans and with; -seconds %v holds %d",
				wl.name, cfg.epoch, cfg.seconds, n)
		}
		spans, per = make([]bool, n), cfg.epoch
		for i := range spans {
			spans[i] = i%2 == 1
		}
	}

	sub, err := newSubstrate()
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(sub)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, wl: wl, sub: sub, orc: orc, errs: newErrAcc(), nextKey: firstFreshKey,
		rng: rand.New(rand.NewSource(int64(cfg.seed))), order: append([]string(nil), sub.targets...)}
	b.rng.Shuffle(len(b.order), func(i, j int) { b.order[i], b.order[j] = b.order[j], b.order[i] })
	defer b.close()

	boots, err := coldBoots(cfg, orc)
	if err != nil {
		return nil, err
	}

	// The traced run needs both stacks for its ladder; the untraced run
	// starts only the one its workload talks to.
	if !wl.fleet || cfg.trace {
		if b.node, err = startNode(sub, sub.survey, 0, 0); err != nil {
			return nil, err
		}
	}
	if wl.fleet || cfg.trace {
		if b.fleet, err = startFleet(sub); err != nil {
			return nil, err
		}
	}

	layers := newMetricSet(perLayer)
	var tr *tracer
	var lad *ladderResult
	if cfg.trace {
		tr = newTracer()
		if lad, err = runLadder(b, tr, layers); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}

	if err := b.prepare(); err != nil {
		return nil, fmt.Errorf("%s: set-up request failed: %w", wl.name, err)
	}

	// Segments run back to back.
	first := b.snapshot()
	segs := make([]segment, len(spans))
	for i, spanned := range spans {
		var str *tracer
		if spanned {
			str = tr
		}
		segs[i] = b.drive(per, str)
	}
	last := b.snapshot()
	for _, n := range b.servingNodes() {
		n.prober.trace.Store(nil)
	}

	// Each timing figure is the best decile, across the windows the
	// measured time is cut into, of the window's own statistic; see best.
	// In a traced run the figures come from the segments without spans.
	res.Windows = map[string][]float64{}
	var spannedP50, pooled []float64
	var localized int
	var elapsed time.Duration
	for i := range segs {
		g := &segs[i]
		res.Attempted += g.attempted
		res.Failed += g.failed
		if g.firstErr != nil {
			res.problem("%v", g.firstErr)
		}
		for _, w := range cut(g, wl.window, nil) {
			if g.spanned {
				spannedP50 = append(spannedP50, w.p50ms)
				continue
			}
			res.Windows["latency_p50_ms"] = append(res.Windows["latency_p50_ms"], w.p50ms)
			if !wl.open {
				res.Windows["throughput_per_s"] = append(res.Windows["throughput_per_s"], w.perS)
			}
		}
		if g.spanned {
			continue
		}
		for _, s := range g.samples {
			pooled = append(pooled, float64(s.latency)/1e6)
		}
		localized += g.localized
		elapsed += g.elapsed
	}
	if res.Attempted == 0 || len(res.Windows["latency_p50_ms"]) == 0 {
		return nil, fmt.Errorf("%s: %d requests in %v fill no window of %v", wl.name, res.Attempted, cfg.seconds, wl.window)
	}
	sort.Float64s(pooled)
	res.TailMs, res.TailPercentile = tail(pooled)
	res.MeanPerS = float64(localized) / elapsed.Seconds()
	e2e := newMetricSet(endToEnd)
	e2e.set("latency_p50_ms", best(res.Windows["latency_p50_ms"], false))
	if wl.open {
		// An open loop completes what it is offered unless a backlog
		// grows, so its rate is read off the whole run; a window's count
		// of arrivals is the schedule's doing.
		e2e.set("throughput_per_s", res.MeanPerS)
	} else {
		e2e.set("throughput_per_s", best(res.Windows["throughput_per_s"], true))
	}
	e2e.set("median_error_km", b.errs.medianKm())
	bootS := make([]float64, len(boots))
	for i, bt := range boots {
		bootS[i] = bt.total.Seconds()
	}
	e2e.set("setup_s", best(bootS, false))
	res.Windows["setup_s"] = bootS

	checkShape(res, wl, first, last)
	late := generatorLateness(res, wl, segs, quantile(pooled, 0.5))

	if cfg.trace {
		lanes := 0
		if wl.fleet {
			lanes = fleetLanes * fleetNodes
		}
		layerDeltas(layers, first, last, lanes)
		setupLayers(layers, boots)
		procLayers(layers, segs, first, last)
		layers.set("loadgen.latency_p99_ms", res.TailMs)
		layers.set("loadgen.late_p99_ms", late.late)
		layers.set("loadgen.conn_wait_p99_ms", late.connWait)
		layers.set("loadgen.timer_lag_p99_ms", late.timerLag)
		layers.set("loadgen.sent", float64(res.Attempted))
		layers.set("loadgen.failed", float64(res.Failed))
		layers.set("trace.overhead_frac", ratio(best(spannedP50, false), e2e.values["latency_p50_ms"])-1)
		layers.set("ledger.coverage_frac", lad.coverage(wl, segs))
		if res.Metrics, err = layers.export(); err != nil {
			return nil, err
		}
		res.TraceSummary = tr.summary()
		if err := tr.write(cfg.traceOut, wl.name, cfg.seed); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	} else if res.Metrics, err = e2e.export(); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// coldBoots boots a fresh node cfg.boots+1 times and drops the first,
// which pays the process's own lazy initialisation.
func coldBoots(cfg config, orc *oracle) ([]bootTimes, error) {
	check := func(target string, body []byte) error {
		_, err := orc.checkBody(body, target, false)
		return err
	}
	var out []bootTimes
	for i := 0; i <= cfg.boots; i++ {
		bt, err := coldBoot(int(cfg.seed)+i, check)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			out = append(out, bt)
		}
	}
	return out, nil
}

// checkShape fails the run when the traffic did not have the shape the
// workload is defined by, so a wrong-shaped run cannot report numbers.
func checkShape(res *result, wl workload, first, last counters) {
	hits := last.cacheHits - first.cacheHits
	misses := last.cacheMisses - first.cacheMisses
	switch wl.name {
	case "solve_cold", "batch_stream":
		if hits != 0 {
			res.problem("%s: %d engine cache hits, every key should be new", wl.name, hits)
		}
	case "cache_hot":
		if misses != 0 {
			res.problem("cache_hot: %d engine cache misses, every key should be primed", misses)
		}
		if pings := last.worldPings - first.worldPings; pings != 0 {
			res.problem("cache_hot: %d pings reached the simulator", pings)
		}
	case "fleet_open":
		l1h := float64(last.router.L1Hits - first.router.L1Hits)
		l1m := float64(last.router.L1Misses - first.router.L1Misses)
		if r := ratio(l1h, l1h+l1m); r < 0.20 || r > 0.30 {
			res.problem("fleet_open: front-door L1 hit ratio %.3f outside 0.20-0.30", r)
		}
	}
	if f := last.probe.failed - first.probe.failed; f != 0 {
		res.problem("%s: %d probes failed", wl.name, f)
	}
}

func setupLayers(m *metricSet, boots []bootTimes) {
	var survey, snap, first []float64
	for _, bt := range boots {
		survey = append(survey, float64(bt.survey)/1e6)
		snap = append(snap, float64(bt.snapshot)/1e6)
		first = append(first, float64(bt.firstLocalize)/1e6)
	}
	m.set("setup.survey_ms", median(survey))
	m.set("setup.snapshot_roundtrip_ms", median(snap))
	m.set("setup.first_localize_ms", median(first))
}

// procLayers reports what the process spent per correct localization
// over all the segments. The process is server and load generator
// together: the client's share is small and the same on both sides of
// any comparison.
func procLayers(m *metricSet, segs []segment, first, last counters) {
	var n float64
	for i := range segs {
		n += float64(segs[i].localized)
	}
	m.set("proc.cpu_ms_per_req", ratio(float64(last.cpu-first.cpu)/1e6, n))
	m.set("proc.allocs_per_req", ratio(float64(last.mallocs-first.mallocs), n))
	m.set("proc.gc_pause_ms_per_s", ratio(float64(last.pauseNs-first.pauseNs)/1e6, last.at.Sub(first.at).Seconds()))
	m.set("proc.heap_inuse_mb", float64(last.heapInuse)/(1<<20))
}

// lateness is how late the generator sent, as 99th percentiles in
// milliseconds pooled over the segments: all causes, then the two causes
// apart.
type lateness struct{ late, connWait, timerLag float64 }

// generatorLateness reports how well the generator kept its own
// schedule, and voids an open-loop run whose generator was late as a
// rule: a median timer lag above 5 % of the median latency p50ms. The
// tail of the lag is printed, not judged. The generator shares two
// processors with the server's solver bursts and Go preempts a running
// goroutine only every 10 ms, so a free connection's wake-up can wait
// several milliseconds for a processor whatever the generator does; that
// wait is inside the latency, which runs from the due time, so it can
// make the system look worse and never better.
func generatorLateness(res *result, wl workload, segs []segment, p50ms float64) lateness {
	var late, wait, lag []float64
	for i := range segs {
		for _, s := range segs[i].samples {
			late = append(late, float64(s.late)/1e6)
			wait = append(wait, float64(s.connWait)/1e6)
			lag = append(lag, float64(s.timerLag)/1e6)
		}
	}
	p99 := func(xs []float64) float64 { return quantile(sorted(xs), 0.99) }
	l := lateness{late: p99(late), connWait: p99(wait), timerLag: p99(lag)}
	if lagP50, limit := median(lag), 0.05*p50ms; wl.open && lagP50 > limit {
		res.problem("%s: generator timer lag p50 %.3f ms exceeds 5%% of latency p50 (%.3f ms); numbers void", wl.name, lagP50, limit)
	}
	return l
}
