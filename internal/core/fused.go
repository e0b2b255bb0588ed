package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// The request path. Every localization — one target or a thousand — is a
// group: the targets one caller submits against one Localizer (one survey
// epoch) under one resolved options set. localizeBatch runs a group and is
// the only place a Request is assembled; LocalizeContext and LocalizeWith
// are groups of one, run on the caller's goroutine.
//
// What a group shares, computed or rasterized once instead of per target:
//
//   - the resolved Config (defaults filled) and the resolved
//     LocalizeOptions;
//   - the projection context — survey-centroid frame, per-landmark
//     tangent frames, land outlines projected into the plane;
//   - the §2.5 land-mask master lattices: solver grids draw their cell
//     sizes from the quantized {FineCellKm · 2^k} set, and LandMaskCache
//     keys masters by (geometry, cell size) with a once-guarded build, so
//     the first target to solve at a given cell size rasterizes the
//     shared geography and every later target samples the same master.
//     The same cache keeps a bounded free list of geo.Scratch pairs; a
//     solve takes one on entry and hands it back on exit, so steady-state
//     solves reuse rather than reallocate the 1M-cell weight grids;
//   - the measurement scheduler, so concurrent targets queue on the same
//     per-landmark buckets instead of each fanning out blind.
//
// What stays per target — measurements, constraint deltas, the two-pass
// weighted solve — is built exactly as for a lone target. A larger group
// runs on min(workers, n) goroutines that claim targets in order off a
// counter and hand each finished index to a channel that holds them all,
// so no worker waits on the caller; the caller only receives and emits. A
// target's memory is its own: each Result is typically retained alone
// (an LRU entry), so nothing a target allocates is shared with, or
// pinned by, another.
//
// Group size changes throughput, never answers: the differential parity
// harness in fused_test.go holds batches bit-identical to sequential
// LocalizeContext calls.

// defaultFusedWorkers is LocalizeBatch's worker-pool width when the
// caller passes no explicit count. Measurement latency dominates bulk
// localization and overlaps across targets, so the default intentionally
// exceeds typical core counts.
const defaultFusedWorkers = 8

// LocalizeBatch estimates the position of every target as one group.
// opts apply to every target (one options fingerprint — one group). The
// returned slices are parallel to targets: results[i] is nil exactly
// when errs[i] is non-nil. Cancelling ctx aborts in-flight targets at
// their next measurement and reports queued ones with ctx's error.
//
// Each result is bit-identical to what a sequential
// LocalizeContext(ctx, targets[i], opts...) call would return. Duplicate
// targets are each measured (use the batch engine for caching and
// coalescing).
func (l *Localizer) LocalizeBatch(ctx context.Context, targets []string, opts ...LocalizeOption) ([]*Result, []error) {
	if len(opts) == 0 {
		return l.LocalizeBatchWith(ctx, targets, 0, nil)
	}
	o := NewLocalizeOptions(opts...)
	return l.LocalizeBatchWith(ctx, targets, 0, &o)
}

// LocalizeBatchWith is LocalizeBatch over pre-resolved options and an
// explicit worker count (≤ 0 means the default), mirroring LocalizeWith:
// callers dispatching many batches under one tuning resolve and
// fingerprint the options once and reuse them.
func (l *Localizer) LocalizeBatchWith(ctx context.Context, targets []string, workers int, o *LocalizeOptions) ([]*Result, []error) {
	results := make([]*Result, len(targets))
	errs := make([]error, len(targets))
	l.localizeBatch(ctx, targets, workers, 0, o, func(i int, res *Result, err error) {
		results[i], errs[i] = res, err
	})
	return results, errs
}

// LocalizeBatchDeadline is the streaming primitive under every other
// entry point: emit is invoked once per target as each completes, always
// on the calling goroutine, and the call returns after the last emit.
// With a positive timeout each target's localization (measurement
// included) runs under its own deadline starting when a worker picks it
// up, so queued targets get a full budget; zero means no limit.
func (l *Localizer) LocalizeBatchDeadline(ctx context.Context, targets []string, workers int, timeout time.Duration, o *LocalizeOptions, emit func(i int, res *Result, err error)) {
	l.localizeBatch(ctx, targets, workers, timeout, o, emit)
}

func (l *Localizer) localizeBatch(ctx context.Context, targets []string, workers int, timeout time.Duration, o *LocalizeOptions, emit func(i int, res *Result, err error)) {
	if len(targets) == 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := l.Survey
	if s == nil || s.N() < 3 {
		err := fmt.Errorf("core: localizer needs a survey with ≥ 3 landmarks")
		for i := range targets {
			emit(i, nil, err)
		}
		return
	}

	cfg := l.Cfg
	cfg.fillDefaults()
	pctx := l.projContext()

	one := func(i int) (*Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tctx := ctx
		if timeout > 0 {
			var cancel context.CancelFunc
			tctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		req := &Request{
			Target: targets[i],
			Cfg:    cfg,
			Survey: s,
			PCtx:   pctx,
			Prober: l.Prober,
			Hints:  l.Hints,
			sched:  l.sched,
			masks:  l.masks,
		}
		if o != nil {
			req.Opts = *o
		}
		return l.localizeRequest(tctx, req)
	}

	if len(targets) == 1 {
		res, err := one(0)
		emit(0, res, err)
		return
	}
	if workers <= 0 {
		workers = defaultFusedWorkers
	}
	// A worker fills its targets' slots and hands over each index; done
	// holds every index, so no worker waits on this goroutine, and a
	// worker yields after each hand-over so this one is not queued behind it.
	var next atomic.Int64
	results, errs := make([]*Result, len(targets)), make([]error, len(targets))
	done := make(chan int, len(targets))
	for w := min(workers, len(targets)); w > 0; w-- {
		go func() {
			for i := int(next.Add(1)) - 1; i < len(targets); i = int(next.Add(1)) - 1 {
				results[i], errs[i] = one(i)
				done <- i
				runtime.Gosched()
			}
		}()
	}
	for range targets {
		i := <-done
		emit(i, results[i], errs[i])
	}
}
