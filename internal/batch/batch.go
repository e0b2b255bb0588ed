// Package batch runs many Octant localizations concurrently over a
// shared Survey snapshot.
//
// The core Localizer measures and solves one target at a time. Deployed
// geolocation workloads are batch-shaped — hint-driven measurement
// campaigns over large target sets, continuous re-localization of a
// serving population — and their wall-clock cost is dominated by
// measurement latency, which overlaps perfectly across targets. Engine
// provides that overlap: a bounded worker pool fans a target list across
// N goroutines that share one immutable Survey, with per-target
// timeout/cancellation, result streaming, an LRU cache of recent results,
// and coalescing of concurrent duplicate requests (only one worker probes
// a given target; the others wait and share its outcome).
//
// The engine does not hold the survey itself — it holds a Provider and
// borrows the current epoch's Localizer once per request. A static
// provider (New) reproduces the fixed-survey behaviour; the lifecycle
// manager is a live provider that republishes recalibrated epochs, and
// because each request borrows exactly one snapshot for its whole
// lifetime, an epoch hot-swap never torn-reads a request: in-flight
// targets finish on the epoch they started with, later requests see the
// new one. Cache entries and coalescing keys are epoch-qualified, so a
// swap implicitly invalidates stale cached results instead of serving
// them from the superseded calibration.
//
// Requests may carry per-request core.LocalizeOption values (the v2
// request API): options are resolved once per call, and both the LRU and
// the singleflight keys are additionally qualified by the options
// fingerprint, so the same target tuned two ways never shares a result,
// while identical tunings still hit and coalesce. Options that cannot be
// fingerprinted (custom evidence sources) bypass sharing entirely.
//
// A Run call is homogeneous by construction — one borrowed epoch, one
// options set — which makes it exactly one fused group: the engine hands
// the post-cache remainder of the batch to core.LocalizeBatchDeadline,
// which resolves configuration once and amortizes the epoch's shared
// rasterization and constraint allocation across the group instead of
// paying them per target (TargetTimeout still applies per target, as a
// deadline starting when a worker picks the target up). Stats reports how
// much traffic took this path (FusedGroups, FusedTargets).
//
// Workers also share the Localizer's per-survey state through their
// shallow Localizer copies: the projection context (survey-centroid
// frame, per-landmark tangent frames, land outlines projected once per
// survey) and the land-mask cache, under which the §2.5 ocean mask is
// rasterized once per (projection, cell size) and every target's coarse
// and fine solver passes reuse it, instead of each solve re-projecting
// and re-rasterizing the fixed land polygons. Stats reports the mask
// cache's hit rate.
//
// Safety: Survey, Calibration, and the undns Resolver are immutable after
// construction, and netsim.World guards its route cache internally, so
// concurrent Localize calls are safe as long as the Prober is (both
// bundled probers are). Engine never mutates the Localizer it wraps.
package batch

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"octant/internal/core"
)

// Options configures an Engine. The zero value is usable: 4 workers,
// a 1024-entry cache, no per-target timeout.
type Options struct {
	// Workers is the number of concurrent localizations (default 4).
	Workers int
	// CacheSize is the LRU capacity in results (default 1024; negative
	// disables caching entirely).
	CacheSize int
	// TargetTimeout bounds each localization, measurement included
	// (0 = no limit). Cancellation is enforced between probe calls, so
	// an expired target stops measuring at the next landmark.
	TargetTimeout time.Duration
	// TTL expires cache entries after this age (0 = never). Latency to a
	// host drifts as routes change, so long-running daemons should set it.
	TTL time.Duration
}

func (o *Options) fillDefaults() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
}

// Provider supplies the current survey epoch's Localizer. The returned
// Localizer (and everything it references) must be immutable; successive
// calls may return different snapshots as epochs are published, and the
// engine borrows exactly one snapshot per request. Implementations must
// be safe for concurrent use — an atomic pointer load is the intended
// shape (the lifecycle manager's RCU-published epoch is one).
type Provider interface {
	CurrentLocalizer() *core.Localizer
}

// staticProvider pins a single Localizer forever — the classic
// fixed-survey engine.
type staticProvider struct{ loc *core.Localizer }

func (p staticProvider) CurrentLocalizer() *core.Localizer { return p.loc }

// Engine is a concurrent batch-localization front end over the survey
// snapshots a Provider publishes. Construct with New or NewWithProvider;
// all methods are safe for concurrent use.
type Engine struct {
	provider Provider
	opts     Options
	cache    *lruCache
	flight   flightGroup
	metrics  metrics
}

// New wraps a fixed Localizer in a batch engine. The Localizer (and
// everything it references) is treated as read-only from this point on.
func New(loc *core.Localizer, opts Options) *Engine {
	return NewWithProvider(staticProvider{loc}, opts)
}

// NewWithProvider builds an engine that borrows the current Localizer
// from p once per request, picking up hot-swapped survey epochs with
// zero interruption to in-flight work.
func NewWithProvider(p Provider, opts Options) *Engine {
	opts.fillDefaults()
	e := &Engine{provider: p, opts: opts}
	if opts.CacheSize > 0 {
		e.cache = newLRU(opts.CacheSize, opts.TTL)
	}
	e.flight.calls = make(map[string]*flightCall)
	return e
}

// Item is one streamed batch outcome. Exactly one of Result/Err is set.
type Item struct {
	// Index is the position of Target in the submitted slice.
	Index  int
	Target string
	Result *core.Result
	Err    error
	// Epoch is the survey epoch this item was served under. The engine
	// borrows one epoch snapshot per request, so every measurement and
	// the solve behind Result used exactly this epoch's calibrations.
	Epoch uint64
	// Cached reports the result was served from the LRU without probing.
	Cached bool
	// Elapsed is the wall time this target took inside the engine.
	Elapsed time.Duration
}

// Localize runs (or serves from cache) a single localization. Concurrent
// calls for the same target and options are coalesced onto one
// measurement; requests for the same target under different options never
// share cache entries or measurements (keys carry the options
// fingerprint).
func (e *Engine) Localize(ctx context.Context, target string, opts ...core.LocalizeOption) (*core.Result, error) {
	item := e.localize(ctx, target, 0, resolveOpts(opts))
	return item.Result, item.Err
}

// LocalizeItem is Localize with the full item metadata (cache status,
// elapsed time) that serving front ends report per response.
func (e *Engine) LocalizeItem(ctx context.Context, target string, opts ...core.LocalizeOption) Item {
	return e.localize(ctx, target, 0, resolveOpts(opts))
}

// Run streams localizations of targets over the returned channel, using
// up to Options.Workers goroutines. Items arrive in completion order (use
// Item.Index to restore submission order) and the channel closes after the
// last one. Cancelling ctx stops the batch early: in-flight targets abort
// at their next probe and queued ones are reported with ctx's error.
// opts apply to every target of the batch; they are resolved and
// fingerprinted once here, not per target.
//
// Multi-target runs take the fused path: the whole batch is one (epoch,
// options-fingerprint) group solved by core.LocalizeBatchDeadline, which
// resolves config and options once and shares the epoch's rasterized
// geography across targets (TargetTimeout still applies per target, as a
// deadline starting when a worker picks the target up). Cache hits are
// served up front, duplicate targets within the batch coalesce onto one
// measurement, and results are bit-identical to the per-target path.
func (e *Engine) Run(ctx context.Context, targets []string, opts ...core.LocalizeOption) <-chan Item {
	ro := resolveOpts(opts)
	out := make(chan Item, e.opts.Workers)
	if len(targets) > 1 {
		go func() {
			defer close(out)
			e.runFused(ctx, targets, ro, out)
		}()
		return out
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out <- e.localize(ctx, targets[i], i, ro)
			}
		}()
	}
	go func() {
		defer close(jobs)
		for i := range targets {
			select {
			case jobs <- i:
			case <-ctx.Done():
				// Report the rest as cancelled rather than dropping
				// them silently.
				for j := i; j < len(targets); j++ {
					out <- Item{Index: j, Target: targets[j], Err: ctx.Err()}
				}
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Collect runs a batch and returns results in submission order. The error
// slice is parallel to targets; results[i] is nil exactly when errs[i] is
// non-nil. opts apply to every target.
func (e *Engine) Collect(ctx context.Context, targets []string, opts ...core.LocalizeOption) (results []*core.Result, errs []error) {
	results = make([]*core.Result, len(targets))
	errs = make([]error, len(targets))
	for item := range e.Run(ctx, targets, opts...) {
		results[item.Index] = item.Result
		errs[item.Index] = item.Err
	}
	return results, errs
}

// runFused executes one homogeneous batch as a single fused group on the
// borrowed epoch. Cache hits stream out first; every remaining distinct
// (target, options) key is measured exactly once by
// core.LocalizeBatchDeadline (duplicates within the batch coalesce onto
// the first occurrence), and measured items stream out in completion
// order. Per-target metrics match the scalar path: one request per
// submitted target, hits/misses counted at the cache, coalesced counted
// per follower.
func (e *Engine) runFused(ctx context.Context, targets []string, ro resolved, out chan<- Item) {
	start := time.Now()
	for range targets {
		e.metrics.begin()
	}
	loc := e.provider.CurrentLocalizer()
	epoch := loc.Survey.Epoch
	e.metrics.fused(len(targets))

	emit := func(item Item) {
		out <- item
		e.metrics.end()
	}

	if err := ctx.Err(); err != nil {
		for i, t := range targets {
			emit(Item{Index: i, Target: t, Epoch: epoch, Err: err})
		}
		return
	}

	key := func(target string) string {
		if ro.fp != "" {
			return target + "\x1f" + ro.fp
		}
		return target
	}

	// Cache partition plus within-batch coalescing. Non-cacheable options
	// (custom evidence sources) share nothing, exactly like the scalar
	// path: no cache read, no cache insertion, no coalescing — every
	// occurrence measures independently.
	measure := make([]string, 0, len(targets))
	followers := make([][]int, 0, len(targets)) // parallel to measure
	leader := make(map[string]int, len(targets))
	for i, t := range targets {
		if ro.cacheable {
			k := key(t)
			if e.cache != nil {
				if res, ok := e.cache.get(k, epoch); ok {
					e.metrics.hit()
					emit(Item{Index: i, Target: t, Epoch: epoch, Result: res, Cached: true, Elapsed: time.Since(start)})
					continue
				}
			}
			e.metrics.miss()
			if j, ok := leader[k]; ok {
				followers[j] = append(followers[j], i)
				e.metrics.coalesce()
				continue
			}
			leader[k] = len(measure)
		} else {
			e.metrics.miss()
		}
		measure = append(measure, t)
		followers = append(followers, []int{i})
	}
	if len(measure) == 0 {
		return
	}

	loc.LocalizeBatchDeadline(ctx, measure, e.opts.Workers, e.opts.TargetTimeout, ro.opts, func(j int, res *core.Result, err error) {
		t := measure[j]
		if err != nil {
			// Match the per-target path's error shape: cancellations and
			// per-target deadline expiries surface as "batch: <target>:
			// <ctx error>".
			for _, sentinel := range []error{context.Canceled, context.DeadlineExceeded} {
				if errors.Is(err, sentinel) {
					err = fmt.Errorf("batch: %s: %w", t, sentinel)
					break
				}
			}
		} else {
			// Once per computed result (not per follower delivery), like
			// the scalar path.
			e.metrics.observePriors(res)
			if e.cache != nil && ro.cacheable && !res.Degraded {
				// Degraded results are served but never cached: the failure
				// that degraded them is transient, and a cached entry would
				// keep answering from partial evidence long after the
				// network healed.
				e.cache.put(key(t), epoch, res)
			}
		}
		elapsed := time.Since(start)
		for _, i := range followers[j] {
			item := Item{Index: i, Target: t, Epoch: epoch, Elapsed: elapsed}
			if err != nil {
				e.metrics.fail()
				item.Err = err
			} else {
				if res.Degraded {
					e.metrics.degrade()
				}
				item.Result = res
				e.metrics.observe(elapsed)
			}
			emit(item)
		}
	})
}

// resolved carries a request's pre-resolved options plus the derived
// cache-key material, computed once per Localize/Run call.
type resolved struct {
	opts *core.LocalizeOptions // nil = defaults
	// fp is the options fingerprint ("" for defaults).
	fp string
	// cacheable is false when the options cannot be fingerprinted by
	// content (custom evidence sources); such requests bypass the LRU
	// and the flight group entirely.
	cacheable bool
}

// resolveOpts resolves functional options once. The zero-option path
// stays allocation-free.
func resolveOpts(opts []core.LocalizeOption) resolved {
	if len(opts) == 0 {
		return resolved{cacheable: true}
	}
	o := core.NewLocalizeOptions(opts...)
	return resolved{opts: &o, fp: o.Fingerprint(), cacheable: o.Cacheable()}
}

// localize is the single-target path shared by Localize and Run workers.
// It borrows the provider's current epoch once, up front, and uses that
// one snapshot for the cache lookup, the coalescing key, and the
// measurement — the request is epoch-consistent end to end even if a
// swap lands mid-flight.
func (e *Engine) localize(ctx context.Context, target string, idx int, ro resolved) Item {
	start := time.Now()
	e.metrics.begin()
	defer e.metrics.end()
	loc := e.provider.CurrentLocalizer()
	epoch := loc.Survey.Epoch
	item := Item{Index: idx, Target: target, Epoch: epoch}

	if err := ctx.Err(); err != nil {
		item.Err = err
		return item
	}

	// Options-fingerprinted keying: requests tuned differently must
	// never share a cache entry or coalesce onto one measurement, while
	// identical tunings keep the full hit/coalesce behaviour. The
	// default-options key is the bare target, so v1 traffic keys exactly
	// as before.
	key := target
	if ro.fp != "" {
		key = target + "\x1f" + ro.fp
	}

	if !ro.cacheable {
		// Un-fingerprintable options (custom evidence sources): measure
		// directly, sharing nothing.
		e.metrics.miss()
		res, err := e.measure(ctx, loc, target, ro.opts)
		if err != nil {
			e.metrics.fail()
			item.Err = err
			return item
		}
		if res.Degraded {
			e.metrics.degrade()
		}
		e.metrics.observePriors(res)
		item.Result = res
		item.Elapsed = time.Since(start)
		e.metrics.observe(item.Elapsed)
		return item
	}

	if e.cache != nil {
		if res, ok := e.cache.get(key, epoch); ok {
			e.metrics.hit()
			item.Result, item.Cached, item.Elapsed = res, true, time.Since(start)
			return item
		}
	}
	e.metrics.miss()

	// Epoch-qualified coalescing: concurrent requests for one (target,
	// options) pair coalesce only within an epoch, so a follower never
	// receives a result computed on a snapshot — or under options — it
	// did not ask for.
	flightKey := strconv.FormatUint(epoch, 36) + "\x00" + key
	res, err, shared := e.flight.do(ctx, flightKey, func() (*core.Result, error) {
		return e.measure(ctx, loc, target, ro.opts)
	})
	if shared {
		e.metrics.coalesce()
	}
	if err != nil {
		e.metrics.fail()
		item.Err = err
		return item
	}
	if !shared {
		// This caller computed the result; followers sharing it don't
		// re-count its dropped hints or conflicts.
		e.metrics.observePriors(res)
	}
	if e.cache != nil && !shared && !res.Degraded {
		// See runFused: degraded results never enter the cache.
		e.cache.put(key, epoch, res)
	}
	if res.Degraded {
		e.metrics.degrade()
	}
	item.Result = res
	item.Elapsed = time.Since(start)
	e.metrics.observe(item.Elapsed)
	return item
}

// measure runs one uncached localization on the borrowed epoch snapshot
// under the per-target deadline. Context binding happens inside the
// core request path now: LocalizeWith attaches ctx to the prober, so a
// cancelled target stops at its next measurement call instead of
// probing all remaining landmarks.
func (e *Engine) measure(ctx context.Context, loc *core.Localizer, target string, o *core.LocalizeOptions) (*core.Result, error) {
	if e.opts.TargetTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.TargetTimeout)
		defer cancel()
	}
	res, err := loc.LocalizeWith(ctx, target, o)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("batch: %s: %w", target, cerr)
		}
		return nil, err
	}
	return res, nil
}

// Peek looks up a cached result for (target, fingerprint, epoch) without
// measuring, coalescing, or counting a request. It is the cluster tier's
// peer-fetch read path: a sibling node (or the fleet router) may ask
// whether this engine already holds a result it can reuse. Entries from
// non-cacheable requests never exist (they bypass the LRU on insert), so
// Peek can never leak an un-shareable result. The lookup follows the
// cache's epoch discipline: an entry from an older epoch than asked for
// is evicted as stale, an entry from a newer one is left alone.
func (e *Engine) Peek(target, fingerprint string, epoch uint64) (*core.Result, bool) {
	if e.cache == nil {
		return nil, false
	}
	key := target
	if fingerprint != "" {
		key = target + "\x1f" + fingerprint
	}
	res, ok := e.cache.get(key, epoch)
	if ok {
		e.metrics.peerHit()
	}
	return res, ok
}

// InFlight reports how many requests the engine currently has in flight —
// the cheap accessor drain loops poll (Stats snapshots the whole latency
// window).
func (e *Engine) InFlight() int64 { return e.metrics.inFlight.Load() }

// Stats returns a snapshot of the engine's counters and latency quantiles.
func (e *Engine) Stats() Stats {
	s := e.metrics.snapshot()
	if e.cache != nil {
		s.CacheLen = e.cache.len()
		s.CacheCap = e.cache.cap
	}
	s.Workers = e.opts.Workers
	loc := e.provider.CurrentLocalizer()
	s.Epoch = loc.Survey.Epoch
	s.LandMasks = loc.LandMasks().Stats()
	s.Solver = loc.LandMasks().SolverStats()
	return s
}

// flightGroup coalesces concurrent calls for the same key onto one
// execution (the classic singleflight shape, scoped to what the engine
// needs). Followers share the leader's result and error — except
// cancellation: a follower waits under its own context, and a leader
// whose context was cancelled does not poison healthy followers (they
// retry, one of them becoming the new leader).
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	res  *core.Result
	err  error
}

func (g *flightGroup) do(ctx context.Context, key string, fn func() (*core.Result, error)) (res *core.Result, err error, shared bool) {
	for {
		g.mu.Lock()
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err(), true
			}
			if c.err != nil && (errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
				// The leader was cancelled or timed out under its own
				// context; that says nothing about this caller. Loop and
				// run (or re-coalesce) under our own context instead.
				continue
			}
			return c.res, c.err, true
		}
		c := &flightCall{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()

		c.res, c.err = fn()

		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		return c.res, c.err, false
	}
}
