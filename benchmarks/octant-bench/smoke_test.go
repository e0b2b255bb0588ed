package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// benchmarkJSON is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMain lets the test binary stand in for the harness when keepAwake
// re-executes it as a spinner.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		spinIdle()
	}
	os.Exit(m.Run())
}

// TestKeepAwakeStops: a spinner per processor runs until stop, and stop
// has waited for every one of them.
func TestKeepAwakeStops(t *testing.T) {
	sp, err := keepAwake()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.procs) != runtime.NumCPU() {
		t.Errorf("%d spinners on %d processors", len(sp.procs), runtime.NumCPU())
	}
	time.Sleep(50 * time.Millisecond)
	for _, c := range sp.procs {
		if err := c.Process.Signal(syscall.Signal(0)); err != nil {
			t.Errorf("spinner %d is not running: %v", c.Process.Pid, err)
		}
	}
	sp.stop()
	for _, c := range sp.procs {
		if c.ProcessState == nil {
			t.Errorf("spinner %d was not waited for", c.Process.Pid)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestTablesMatchBenchmarkJSON keeps the harness's metric and workload
// tables and BENCHMARK.json in step, name for name and unit for unit.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per-layer name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// what a full run relies on: every answer correct, every workload-shape
// assertion holding, every declared metric printed exactly once, and a
// trace that parses with every span's parent present.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real serving stacks")
	}
	bj := loadBenchmarkJSON(t)
	dir := t.TempDir()
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := newConfig(wl.name, 7, 600*time.Millisecond, traced)
			cfg.boots, cfg.ladderN = 1, 1
			want := make([]string, 0, len(bj.PerLayer))
			if traced {
				// Half the time goes to two segments, one with spans.
				cfg.seconds, cfg.epoch = 2400*time.Millisecond, 600*time.Millisecond
				cfg.traceOut = filepath.Join(dir, wl.name+".json")
				for _, m := range bj.PerLayer {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range bj.EndToEnd {
					want = append(want, m.Name)
				}
			}
			t0 := time.Now()
			res, err := run(cfg)
			t.Logf("%s traced=%v: %v", wl.name, traced, time.Since(t0))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d", wl.name, traced, res.Attempted, res.Failed)
			}
			for _, p := range res.Problems {
				// The one assertion that judges the machine and not the
				// traffic: a loaded host may void the timing of a run this
				// short without anything being wrong with it.
				if strings.Contains(p, "generator timer lag") {
					t.Logf("%s traced=%v: %s", wl.name, traced, p)
					continue
				}
				t.Errorf("%s traced=%v: %s", wl.name, traced, p)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: metric %s not reported", wl.name, traced, name)
				}
			}
			var printed bytes.Buffer
			report(&printed, res)
			for _, name := range want {
				if n := strings.Count(printed.String(), "\n"+name+" "); n != 1 {
					t.Errorf("%s traced=%v: metric %s printed %d times", wl.name, traced, name, n)
				}
			}
			if traced {
				checkTrace(t, cfg.traceOut)
			}
		}
	}
}

// checkTrace parses a trace file and checks that span ids are unique,
// every span ends no earlier than it starts, and every parent is there
// and belongs to the same request.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Workload string `json:"workload"`
		Spans    []struct {
			ID, Parent, Req int
			Name            string
			StartUs         float64 `json:"start_us"`
			EndUs           float64 `json:"end_us"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) < 10 {
		t.Fatalf("%s: only %d spans", path, len(tf.Spans))
	}
	req := map[int]int{}
	names := map[string]bool{}
	for _, s := range tf.Spans {
		if _, dup := req[s.ID]; dup || s.ID == 0 {
			t.Errorf("%s: span id %d repeated or zero", path, s.ID)
		}
		req[s.ID] = s.Req
		names[s.Name] = true
		if s.EndUs < s.StartUs || !nameRE.MatchString(strings.ReplaceAll(s.Name, "+", "_")) {
			t.Errorf("%s: bad span %+v", path, s)
		}
	}
	for _, s := range tf.Spans {
		if s.Parent == 0 {
			continue
		}
		if r, ok := req[s.Parent]; !ok || r != s.Req {
			t.Errorf("%s: span %d (%s): parent %d missing or of another request", path, s.ID, s.Name, s.Parent)
		}
	}
	for _, name := range []string{"client.request", "client.http", "core.Solve", "geo.Grid.LevelSets", "cluster.Router.Localize"} {
		if !names[name] {
			t.Errorf("%s: no %s span", path, name)
		}
	}
}

// TestKeysAreDistinct: the key minter yields a new options fingerprint
// for every k, and the wire form of a key decodes to the same
// fingerprint the engine call computes.
func TestKeysAreDistinct(t *testing.T) {
	seen := map[string]int{}
	for k := 0; k < 5000; k++ {
		fp := keyFingerprint(k)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("keys %d and %d share fingerprint %q", prev, k, fp)
		}
		seen[fp] = k
		var req struct {
			Options json.RawMessage `json:"options"`
		}
		if err := json.Unmarshal(localizeBody(nil, "h", k), &req); err != nil {
			t.Fatal(err)
		}
		if (k == 0) != (req.Options == nil) {
			t.Fatalf("key %d: options %s", k, req.Options)
		}
	}
	if keyFingerprint(0) != "" {
		t.Errorf("key 0 should be the default request, fingerprint %q", keyFingerprint(0))
	}
}

func TestTail(t *testing.T) {
	asc := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{2000, 1980}, // a true p99: 20 samples beyond
		{120, 110},   // the highest value with ten beyond it
		{12, 7},      // never below the median
	} {
		if got, _ := tail(asc(tc.n)); got != tc.want {
			t.Errorf("tail of 1..%d = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestBest(t *testing.T) {
	xs := []float64{9, 3, 7, 1, 8, 2, 6, 5, 4, 10, 11}
	if got := best(xs, false); got != 2 {
		t.Errorf("best cost decile of 1..11 = %v, want 2", got)
	}
	if got := best(xs, true); got != 10 {
		t.Errorf("best rate decile of 1..11 = %v, want 10", got)
	}
}

// TestCompareVerdicts: over enough runs a side, a worsening of the
// median inside the bound is ok and one beyond it regresses; a side whose
// runs spread wider than the bound, or has too few of them, is
// unresolved, unless every run of B beats every run of A.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	series := func(name string, p50s ...float64) string {
		path := filepath.Join(dir, name)
		for i, p50 := range p50s {
			r := &result{Workload: "solve_cold", Seed: uint64(i), Metrics: map[string]metricValue{}}
			for _, d := range endToEnd {
				r.Metrics[d.name] = metricValue{Value: 10, Unit: d.unit}
			}
			r.Metrics["latency_p50_ms"] = metricValue{Value: p50, Unit: "ms"}
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := series("a", 10, 10.1, 9.9, 10, 10.2)
	for _, tc := range []struct {
		name      string
		p50s      []float64
		verdict   string
		regressed bool
	}{
		{"inside", []float64{10.5, 10.4, 10.6, 10.5}, " ok", false},
		{"beyond", []float64{13, 13.1, 12.9, 13}, "REGRESSED", true},
		{"noisy", []float64{8, 13, 16, 20, 24}, " unresolved\n", false},
		{"few", []float64{13, 13}, "too few runs", false},
		{"noisy-but-all-better", []float64{2, 5, 7, 9}, " ok", false},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, series(tc.name, tc.p50s...))
		if err != nil {
			t.Fatal(err)
		}
		row := ""
		for _, line := range strings.SplitAfter(out.String(), "\n") {
			if strings.Contains(line, "latency_p50_ms") {
				row = line
			}
		}
		if regressed != tc.regressed || !strings.Contains(row, tc.verdict) {
			t.Errorf("%s: regressed=%v, want %v with verdict %q:\n%s", tc.name, regressed, tc.regressed, tc.verdict, out.String())
		}
	}
}

// TestRunSpread holds runSpread to statistics.quantiles(xs, n=4), the
// driver's measure.
func TestRunSpread(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64 // (q3 - q1) / median, from Python
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5 / 5.5},
		{[]float64{3.1, 2.9, 3.4, 3.0, 5.0}, (4.2 - 2.95) / 3.1},
		{[]float64{4, 2}, (4.5 - 1.5) / 3},
	} {
		if got := runSpread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("runSpread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestTracedRunNeedsSegments: a traced run too short to hold a segment
// with spans and one without is refused before any work, not reported
// with a NaN overhead.
func TestTracedRunNeedsSegments(t *testing.T) {
	if _, err := run(newConfig("batch_stream", 1, 6*time.Second, true)); err == nil {
		t.Fatal("a 6 s traced run, whose half holds one 2 s segment, was accepted")
	}
}

// TestTracerSameTargetTwice: two requests for one target in flight at
// once keep their own spans, a train is booked to the older one, and
// finishing either leaves the other in place.
func TestTracerSameTargetTwice(t *testing.T) {
	tr := newTracer()
	now := time.Now()
	a := tr.begin([]string{"h"}, now)
	b := tr.begin([]string{"h"}, now)
	tr.probeSpan("h", now, now, now)
	tr.finish(a, []string{"h"}, now)
	tr.probeSpan("h", now, now, now)
	tr.finish(b, []string{"h"}, now)
	tr.probeSpan("h", now, now, now) // nobody waiting: not recorded
	var parents []int
	for _, s := range tr.spans {
		if s.name == "probe.train" {
			parents = append(parents, s.parent)
		}
	}
	if len(parents) != 2 || parents[0] != a || parents[1] != b {
		t.Errorf("train parents %v, want [%d %d]", parents, a, b)
	}
}
