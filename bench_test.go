// Benchmark harness: one testing.B benchmark per figure in the paper's
// evaluation section, plus ablation benches for the design choices called
// out in DESIGN.md and micro-benchmarks of the geometric kernels.
//
// The figure benches both measure cost and print the reproduced series via
// b.Log on the first iteration, so `go test -bench . -benchmem` regenerates
// every figure's data (also available via cmd/octant-eval).
package octant_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"octant/internal/baselines"
	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/eval"
	"octant/internal/geo"
	"octant/internal/geodb"
	"octant/internal/measure"
	"octant/internal/netsim"
	"octant/internal/probe"
)

var (
	deployOnce sync.Once
	deployment *eval.Deployment
	deployErr  error
)

func sharedDeployment(b *testing.B) *eval.Deployment {
	b.Helper()
	deployOnce.Do(func() {
		deployment, deployErr = eval.NewDeployment(1)
	})
	if deployErr != nil {
		b.Fatal(deployErr)
	}
	return deployment
}

// BenchmarkFig1RegionCombination measures the Figure 1 operation: combining
// positive and negative constraints into a non-convex, possibly disjoint
// weighted region.
func BenchmarkFig1RegionCombination(b *testing.B) {
	pr := geo.NewProjection(geo.Pt(41.8, -74.0))
	cons := []core.Constraint{
		core.PositiveDisk(pr, geo.Pt(42.44, -76.50), 260, 1.0, "a"),
		core.NegativeDisk(pr, geo.Pt(42.44, -76.50), 60, 1.0, "a/neg"),
		core.PositiveDisk(pr, geo.Pt(40.71, -74.01), 240, 0.9, "b"),
		core.NegativeDisk(pr, geo.Pt(40.71, -74.01), 70, 0.9, "b/neg"),
		core.PositiveDisk(pr, geo.Pt(42.36, -71.06), 340, 0.8, "c"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.Solve(cons, core.SolverOpts{MinAreaKm2: 1500})
		if err != nil {
			b.Fatal(err)
		}
		if sol.Region.IsEmpty() {
			b.Fatal("empty region")
		}
	}
}

// TestFig1AllocRegression pins the allocation budget of the Figure 1
// solve: the edge-table rewrite landed at 148 allocs/op and the pooled
// rasterizer buffers of the unit-vector PR cut it further; any climb back
// above the 148 mark is a regression.
func TestFig1AllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("testing.Benchmark run is not short")
	}
	res := testing.Benchmark(BenchmarkFig1RegionCombination)
	const maxAllocs = 148
	if a := res.AllocsPerOp(); a > maxAllocs {
		t.Errorf("Fig1RegionCombination allocates %d allocs/op, budget is %d", a, maxAllocs)
	}
}

// BenchmarkConstraintBuild measures bare disk-constraint construction —
// the unit-vector fast path plus adaptive polygonalization — across the
// radius regimes that occur in practice: 30 km city pins, 300 km metro
// bounds, 3000 km continental latency disks.
func BenchmarkConstraintBuild(b *testing.B) {
	pr := geo.NewProjection(geo.Pt(41.8, -74.0))
	lm := geo.Pt(42.44, -76.50)
	for _, radius := range []float64{30, 300, 3000} {
		b.Run(fmt.Sprintf("PositiveDisk-%.0fkm", radius), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if core.PositiveDisk(pr, lm, radius, 1, "bench").Region.IsEmpty() {
					b.Fatal("empty disk")
				}
			}
		})
		b.Run(fmt.Sprintf("NegativeDisk-%.0fkm", radius), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if core.NegativeDisk(pr, lm, radius, 1, "bench").Region.IsEmpty() {
					b.Fatal("empty disk")
				}
			}
		})
	}
}

// BenchmarkFig2Calibration measures one landmark's §2.1 calibration build
// and reports the hull/percentile/spline series of Figure 2.
func BenchmarkFig2Calibration(b *testing.B) {
	d := sharedDeployment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := d.RunFig2("rochester")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Fig2: %d scatter points, ρ=%.1fms, %d upper facets, %d lower facets",
				len(f.Scatter), f.Rho, len(f.UpperFacets), len(f.LowerFacets))
		}
	}
}

// BenchmarkFig3ErrorCDF measures the full four-technique comparison on a
// subset of targets (step 5 → 11 of 51) and reports the medians; run
// cmd/octant-eval -fig 3 for the full 51-target version.
func BenchmarkFig3ErrorCDF(b *testing.B) {
	d := sharedDeployment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.RunFig3(core.Config{}, 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range res.Summaries() {
				b.Logf("Fig3 %-9s median %6.1f mi  worst %6.1f mi", s.Name, s.Median, s.Worst)
			}
		}
	}
}

// BenchmarkFig4LandmarkSweep measures the containment-vs-landmark-count
// sweep on two representative counts; cmd/octant-eval -fig 4 runs the full
// 10..50 sweep.
func BenchmarkFig4LandmarkSweep(b *testing.B) {
	d := sharedDeployment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := d.RunFig4(core.Config{}, []int{15, 40}, 1, 7)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				b.Logf("Fig4 k=%2d Octant %.0f%% GeoLim %.0f%%", p.Landmarks, p.OctantPct, p.GeoLimPct)
			}
		}
	}
}

// ablationBench localizes a fixed target under a config variant and
// per-request options; the b.Log line reports the accuracy effect of the
// ablated mechanism.
func ablationBench(b *testing.B, cfg core.Config, opts ...core.LocalizeOption) {
	d := sharedDeployment(b)
	const ti = 2 // rochester
	target := d.Landmarks[ti]
	idx := make([]int, 0, len(d.Landmarks)-1)
	for i := range d.Landmarks {
		if i != ti {
			idx = append(idx, i)
		}
	}
	sub, err := d.Survey.Subset(idx)
	if err != nil {
		b.Fatal(err)
	}
	loc := core.NewLocalizer(d.Prober, sub, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := loc.LocalizeContext(context.Background(), target.Addr, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			errMi := res.Point.DistanceMiles(target.Loc)
			if math.IsNaN(errMi) {
				b.Logf("ablation: empty region (brittle config)")
			} else {
				b.Logf("ablation: error %.1f mi, area %.0f km², contains=%v",
					errMi, res.AreaKm2, res.ContainsTruth(target.Loc))
			}
		}
	}
}

// BenchmarkAblationBaseline is the full default pipeline (§2.1–2.5).
func BenchmarkAblationBaseline(b *testing.B) { ablationBench(b, core.Config{}) }

// BenchmarkAblationHeights disables §2.2 queuing-delay compensation.
func BenchmarkAblationHeights(b *testing.B) { ablationBench(b, core.Config{DisableHeights: true}) }

// BenchmarkAblationNegative disables negative constraints (positive-only,
// the prior-work regime).
func BenchmarkAblationNegative(b *testing.B) { ablationBench(b, core.Config{DisableNegative: true}) }

// BenchmarkAblationPiecewise disables §2.3 router localization.
func BenchmarkAblationPiecewise(b *testing.B) {
	ablationBench(b, core.Config{}, core.WithoutSource(core.SourceRouter))
}

// BenchmarkAblationGeoConstraints disables §2.5 WHOIS + ocean constraints.
func BenchmarkAblationGeoConstraints(b *testing.B) {
	ablationBench(b, core.Config{DisableWhois: true}, core.WithoutSource(core.SourceGeography))
}

// pacedProber adds a fixed delay to every Ping call, emulating the
// wire-time a real measurement spends waiting on the network (the
// simulator itself answers instantly). This is the latency the batch
// engine exists to overlap: with it in place, worker scaling reflects
// deployment behavior instead of single-core solver throughput.
type pacedProber struct {
	probe.Prober
	delay time.Duration
}

func (p pacedProber) Ping(src, dst string, n int) ([]float64, error) {
	time.Sleep(p.delay)
	return p.Prober.Ping(src, dst, n)
}

var (
	batchFixOnce      sync.Once
	batchFixLoc       *core.Localizer // paced: 5 ms wire time per ping train
	batchFixSerialLoc *core.Localizer // paced + one-worker scheduler
	batchFixRawLoc    *core.Localizer // unpaced: pure solver CPU and allocs
	batchFixTargets   []string
	batchFixErr       error
)

// batchFixture holds 8 hosts out of the survey as targets and builds a
// localizer whose prober pays 5 ms of wire time per ping train (plus a
// one-worker-scheduler twin for the paced serial/parallel pair and an
// unpaced twin for allocation measurements).
func batchFixture(b testing.TB) (*core.Localizer, []string) {
	b.Helper()
	batchFixOnce.Do(func() {
		world := netsim.NewWorld(netsim.Config{Seed: 1})
		prober := probe.NewSimProber(world)
		hosts := world.HostNodes()
		const nTargets = 8
		targets := make([]string, nTargets)
		for i := 0; i < nTargets; i++ {
			targets[i] = hosts[i].Name
		}
		var lms []core.Landmark
		for _, h := range hosts[nTargets:] {
			lms = append(lms, core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
		}
		// The survey itself builds on the unpaced prober (its O(n²) pings
		// are not what this benchmark measures).
		survey, err := core.NewSurvey(prober, lms, core.SurveyOpts{UseHeights: true})
		if err != nil {
			batchFixErr = err
			return
		}
		paced := pacedProber{Prober: prober, delay: 5 * time.Millisecond}
		batchFixLoc = core.NewLocalizer(paced, survey, core.Config{})
		batchFixSerialLoc = core.NewLocalizer(paced, survey, core.Config{MeasureWorkers: 1})
		batchFixRawLoc = core.NewLocalizer(prober, survey, core.Config{})
		batchFixTargets = targets
	})
	if batchFixErr != nil {
		b.Fatal(batchFixErr)
	}
	return batchFixLoc, batchFixTargets
}

// BenchmarkBatchLocalize compares sequential Localize against the batch
// engine at 1, 4, and 8 workers over the same 8 held-out targets, under
// realistic per-probe wire time. The reported targets/s metric is the
// serving throughput; the engine's cache is disabled so every iteration
// measures real localizations.
func BenchmarkBatchLocalize(b *testing.B) {
	loc, targets := batchFixture(b)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, t := range targets {
				if _, err := loc.LocalizeContext(context.Background(), t); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(targets)*b.N)/b.Elapsed().Seconds(), "targets/s")
	})
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			eng := batch.New(loc, batch.Options{Workers: workers, CacheSize: -1})
			for i := 0; i < b.N; i++ {
				_, errs := eng.Collect(context.Background(), targets)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(targets)*b.N)/b.Elapsed().Seconds(), "targets/s")
		})
	}
}

// BenchmarkLocalizeBatchFused measures the fused multi-target solve over
// the same paced fixture as BenchmarkBatchLocalize, so the two reports are
// directly comparable. The fused path skips the batch engine entirely — no cache, no flight table — so this is the
// floor cost of a homogeneous group.
func BenchmarkLocalizeBatchFused(b *testing.B) {
	loc, targets := batchFixture(b)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, errs := loc.LocalizeBatchWith(context.Background(), targets, workers, nil)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(targets)*b.N)/b.Elapsed().Seconds(), "targets/s")
		})
	}
}

// BenchmarkLocalizePacedSerial is the single-target latency of the
// pre-scheduler measurement loop under 5 ms of wire time per ping train:
// every landmark's train is paid for serially, so one localization costs
// roughly landmarks × 5 ms before the solver even starts.
func BenchmarkLocalizePacedSerial(b *testing.B) {
	batchFixture(b)
	loc, targets := batchFixSerialLoc, batchFixTargets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loc.LocalizeContext(context.Background(), targets[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalizePacedParallel is the same single-target workload with
// the concurrent measurement scheduler fanning the landmark probes out.
// That the trains overlap is asserted by counting, not timing:
// measure.TestFanoutOverlapsTrains.
func BenchmarkLocalizePacedParallel(b *testing.B) {
	loc, targets := batchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loc.LocalizeContext(context.Background(), targets[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureFanout isolates the scheduler itself: one full
// landmark fan-out (min-filtered ping trains from every landmark to one
// target, 1 ms wire time each) per iteration, no solver. Tracks the
// scheduler's dispatch overhead and wall-time win over its history.
func BenchmarkMeasureFanout(b *testing.B) {
	world := netsim.NewWorld(netsim.Config{Seed: 1})
	paced := pacedProber{Prober: probe.NewSimProber(world), delay: time.Millisecond}
	hosts := world.HostNodes()
	target := hosts[0].Name
	srcs := make([]string, 0, len(hosts)-1)
	for _, h := range hosts[1:] {
		srcs = append(srcs, h.Name)
	}
	sched := measure.New(measure.Config{})
	out := make([]float64, len(srcs))
	errs := make([]error, len(srcs))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.PingMinInto(ctx, paced, srcs, target, 10, 0, out, errs)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestLocalizeBatchAllocRegression pins the fused path's steady-state
// allocation budget at ≤ 210 allocs per target — the point of the batch
// arena and the shared-rasterization reuse (a cold single-target Localize
// sat at ~1530 allocs before this work; the one-pass solver brought the
// fused path from 291 to 244, per-survey "/neg" source names and the
// table-free row fills to 199, and the budget is that plus 5 %).
// Measured unpaced so the count is pure solver work, with one warmup
// batch so land-mask masters and scratch pairs exist before counting
// starts.
func TestLocalizeBatchAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state benchmark run under -short")
	}
	batchFixture(t)
	loc, targets := batchFixRawLoc, batchFixTargets
	ctx := context.Background()
	run := func(b *testing.B) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, errs := loc.LocalizeBatchWith(ctx, targets, 8, nil)
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	res := testing.Benchmark(run)
	perTarget := res.AllocsPerOp() / int64(len(targets))
	const maxAllocsPerTarget = 210
	if perTarget > maxAllocsPerTarget {
		t.Errorf("fused batch allocates %d allocs/target steady-state, budget is %d",
			perTarget, maxAllocsPerTarget)
	}
	t.Logf("fused batch: %d allocs/target over %d-target batches", perTarget, len(targets))
}

// --- substrate micro-benchmarks ---

// BenchmarkSurveyBuild measures the full 50-landmark survey: O(n²) pings,
// heights solve, 50 convex-hull calibrations.
func BenchmarkSurveyBuild(b *testing.B) {
	w := netsim.NewWorld(netsim.Config{Seed: 1})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	var lms []core.Landmark
	for _, h := range hosts[1:] {
		lms = append(lms, core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSurvey(p, lms, core.SurveyOpts{UseHeights: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// localizeFixture builds the single-target localization workload
// BenchmarkLocalize measures.
func localizeFixture(b *testing.B) (*core.Localizer, string) {
	b.Helper()
	d := sharedDeployment(b)
	target := d.Landmarks[0]
	idx := make([]int, 0, len(d.Landmarks)-1)
	for i := 1; i < len(d.Landmarks); i++ {
		idx = append(idx, i)
	}
	sub, err := d.Survey.Subset(idx)
	if err != nil {
		b.Fatal(err)
	}
	loc := core.NewLocalizer(d.Prober, sub, core.Config{})
	// One untimed localization builds the Localizer's lazy state (the two
	// land-mask masters, ~600 allocations). Left inside the timed loop it
	// spread over b.N and moved allocs/op by 1–3 with the machine's speed.
	if _, err := loc.LocalizeContext(context.Background(), target.Addr); err != nil {
		b.Fatal(err)
	}
	return loc, target.Addr
}

// BenchmarkLocalize measures one end-to-end localization against a
// pre-built survey: the default 51-site world's first host, localized from
// the other 50 sites as landmarks (heights surveyed), full default pipeline,
// default options, lazy state built by one untimed call.
func BenchmarkLocalize(b *testing.B) {
	loc, target := localizeFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loc.LocalizeContext(context.Background(), target); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLocalizeAllocBudget pins a lone localization at ≤ 300 allocs/op, the
// number ROADMAP item 6 asked of BenchmarkLocalize: 481 until a request's
// latency disks — three heap objects each, a hundred disks here — came from
// three exact-size blocks (183 after).
func TestLocalizeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("testing.Benchmark run is not short")
	}
	const maxAllocs = 300
	if a := testing.Benchmark(BenchmarkLocalize).AllocsPerOp(); a > maxAllocs {
		t.Errorf("Localize allocates %d allocs/op, budget is %d", a, maxAllocs)
	} else {
		t.Logf("Localize: %d allocs/op", a)
	}
}

// BenchmarkLocalizeWithHints measures one end-to-end localization with
// the hint-rich stages live: the target carries a gazetteer-matching
// reverse name (rDNS hint → RTT cross-validation → weighted disk) and a
// synthetic geo-DB provider answers for it. Its allocation cost over
// BenchmarkLocalize is budgeted by TestLocalizeWithHintsAllocBudget; its
// time is ungated (see docs/PERFORMANCE.md).
func BenchmarkLocalizeWithHints(b *testing.B) {
	w := netsim.NewWorld(netsim.Config{Seed: 1, HostRDNSHintFrac: 0.85})
	p := probe.NewSimProber(w)
	hosts := w.HostNodes()
	// Pick a hint-bearing target so the bench pays the full pipeline:
	// parse, cross-validate, and apply — not an early "no hint" skip.
	targetIdx := -1
	for i, h := range hosts {
		if w.ReverseName(h.ID) != h.Name {
			targetIdx = i
			break
		}
	}
	if targetIdx < 0 {
		b.Fatal("no hint-bearing host in the bench world")
	}
	var lms []core.Landmark
	for i, h := range hosts {
		if i == targetIdx {
			continue
		}
		lms = append(lms, core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	survey, err := core.NewSurvey(p, lms, core.SurveyOpts{UseHeights: true})
	if err != nil {
		b.Fatal(err)
	}
	loc := core.NewLocalizer(p, survey, core.Config{
		GeoDB: geodb.NewSynth(w, geodb.SynthOpts{Seed: 1}),
	})
	target := hosts[targetIdx].Name
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loc.LocalizeContext(context.Background(), target); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLocalizeWithHintsAllocBudget bounds what the hint stages (parse,
// RTT cross-validation, two extra weighted disks) may add to a
// localization: at most 200 allocs/op over the hint-free workload.
func TestLocalizeWithHintsAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("testing.Benchmark run is not short")
	}
	base := testing.Benchmark(BenchmarkLocalize).AllocsPerOp()
	hinted := testing.Benchmark(BenchmarkLocalizeWithHints).AllocsPerOp()
	const maxExtraAllocs = 200
	if hinted > base+maxExtraAllocs {
		t.Errorf("LocalizeWithHints allocates %d/op, Localize %d/op: the hint stages add %d, budget is %d",
			hinted, base, hinted-base, maxExtraAllocs)
	}
	t.Logf("LocalizeWithHints %d allocs/op vs Localize %d allocs/op", hinted, base)
}

// BenchmarkRegionIntersectRaster measures pairwise disk intersection at the
// automatic cell.
func BenchmarkRegionIntersectRaster(b *testing.B) {
	r1 := geo.Disk(geo.V2(0, 0), 100, 128)
	r2 := geo.Disk(geo.V2(120, 0), 100, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if geo.Intersect(r1, r2, nil).IsEmpty() {
			b.Fatal("unexpected empty")
		}
	}
}

// BenchmarkRegionBuffer measures morphological dilation (secondary
// landmark positive constraints).
func BenchmarkRegionBuffer(b *testing.B) {
	r := geo.Disk(geo.V2(0, 0), 80, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if geo.Buffer(r, 40, 2).IsEmpty() {
			b.Fatal("unexpected empty")
		}
	}
}

// BenchmarkBezierFit measures fitting a 256-vertex ring with cubic Beziers.
func BenchmarkBezierFit(b *testing.B) {
	ring := geo.Disk(geo.V2(0, 0), 100, 256).Rings[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(geo.FitBeziers(ring, 0.5)) == 0 {
			b.Fatal("no fit")
		}
	}
}

// BenchmarkPing measures the simulator's measurement path (route lookup +
// 10 jittered probes).
func BenchmarkPing(b *testing.B) {
	w := netsim.NewWorld(netsim.Config{Seed: 1})
	a, c := w.Hosts[0], w.Hosts[25]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.MinPing(a, c, 10) <= 0 {
			b.Fatal("bad rtt")
		}
	}
}

// BenchmarkGeoLim measures the CBG baseline end to end.
func BenchmarkGeoLim(b *testing.B) {
	d := sharedDeployment(b)
	target := d.Landmarks[0]
	idx := make([]int, 0, len(d.Landmarks)-1)
	for i := 1; i < len(d.Landmarks); i++ {
		idx = append(idx, i)
	}
	sub, err := d.Survey.Subset(idx)
	if err != nil {
		b.Fatal(err)
	}
	gl := baselines.NewGeoLim(sub)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gl.Localize(d.Prober, target.Addr, 10); err != nil {
			b.Fatal(err)
		}
	}
}
