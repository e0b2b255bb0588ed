package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"octant/internal/core"
	"octant/internal/netsim"
	"octant/internal/probe"
)

// pacedProber adds fixed wire time to every ping train, so the bulk
// benchmark measures what a deployment would: per-target measurement
// latency that the fused batch solve overlaps across targets (the
// simulator itself answers instantly).
type pacedProber struct {
	probe.Prober
	delay time.Duration
}

func (p pacedProber) Ping(src, dst string, n int) ([]float64, error) {
	time.Sleep(p.delay)
	return p.Prober.Ping(src, dst, n)
}

// runBulk is the -bulk mode: localize one homogeneous batch of nTargets
// (cycling over 8 held-out hosts) twice — a per-target sequential loop,
// then the fused core.LocalizeBatchWith path at the given worker count —
// and emit both passes as go-bench-format lines (ns/op, allocs/op,
// targets/s) that -bench-json archives into BENCH_<sha>.json. The run is
// its own differential parity check: any fused result that is not
// bit-identical to its sequential reference fails the command.
func runBulk(seed uint64, nTargets, workers int, pace time.Duration) error {
	if nTargets < 1 {
		return fmt.Errorf("-bulk-targets must be ≥ 1 (got %d)", nTargets)
	}
	world := netsim.NewWorld(netsim.Config{Seed: seed})
	prober := probe.NewSimProber(world)
	hosts := world.HostNodes()
	const hold = 8
	var lms []core.Landmark
	for _, h := range hosts[hold:] {
		lms = append(lms, core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	// The survey builds unpaced: its O(n²) mesh is not what bulk measures.
	survey, err := core.NewSurvey(prober, lms, core.SurveyOpts{UseHeights: true})
	if err != nil {
		return err
	}
	targets := make([]string, nTargets)
	for i := range targets {
		targets[i] = hosts[i%hold].Name
	}
	// The sequential reference asks for a one-worker scheduler — one
	// probe train at a time, in landmark order: the gate compares the
	// fused stack against the pre-batch, pre-fan-out deployment, and
	// letting the baseline fan out its own probes would quietly
	// re-baseline the ≥5× floor. The parity check below doubles as a
	// differential test that fan-out width never changes answers.
	paced := pacedProber{Prober: prober, delay: pace}
	seqLoc := core.NewLocalizer(paced, survey, core.Config{MeasureWorkers: 1})
	loc := core.NewLocalizer(paced, survey, core.Config{})

	// One warmup localization per localizer so land-mask masters and
	// pooled grids exist before either timed pass.
	if _, err := seqLoc.LocalizeContext(context.Background(), targets[0]); err != nil {
		return err
	}
	if _, err := loc.LocalizeContext(context.Background(), targets[0]); err != nil {
		return err
	}

	measure := func(run func() error) (time.Duration, uint64, error) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := run()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return elapsed, after.Mallocs - before.Mallocs, err
	}

	seq := make([]*core.Result, len(targets))
	seqElapsed, seqAllocs, err := measure(func() error {
		for i, tgt := range targets {
			res, err := seqLoc.LocalizeContext(context.Background(), tgt)
			if err != nil {
				return fmt.Errorf("sequential %s: %w", tgt, err)
			}
			seq[i] = res
		}
		return nil
	})
	if err != nil {
		return err
	}

	var fused []*core.Result
	fusedElapsed, fusedAllocs, err := measure(func() error {
		results, errs := loc.LocalizeBatchWith(context.Background(), targets, workers, nil)
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("fused %s: %w", targets[i], err)
			}
		}
		fused = results
		return nil
	})
	if err != nil {
		return err
	}

	// Differential parity: batching must change throughput, never answers.
	for i, res := range fused {
		ref := seq[i]
		if res.Point != ref.Point || res.AreaKm2 != ref.AreaKm2 ||
			res.Weight != ref.Weight || res.TargetHeightMs != ref.TargetHeightMs {
			return fmt.Errorf("bulk parity violation at %s: fused %v / %.6f km² diverges from sequential %v / %.6f km²",
				targets[i], res.Point, res.AreaKm2, ref.Point, ref.AreaKm2)
		}
	}

	n := float64(len(targets))
	emit := func(name string, d time.Duration, allocs uint64) {
		fmt.Printf("Benchmark%s \t       1\t%d ns/op\t%d allocs/op\t%.2f targets/s\n",
			name, d.Nanoseconds(), allocs, n/d.Seconds())
	}
	emit("BulkSequential", seqElapsed, seqAllocs)
	emit("BulkFused", fusedElapsed, fusedAllocs)
	fmt.Printf("bulk: %d targets (%d hosts), %d workers, %v pace: fused %.2f× sequential throughput, parity OK\n",
		nTargets, hold, workers, pace, seqElapsed.Seconds()/fusedElapsed.Seconds())
	return nil
}
