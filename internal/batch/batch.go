// Package batch runs Octant localizations over shared Survey snapshots:
// caching, coalescing and streaming for any number of targets at once.
//
// Deployed geolocation workloads are batch-shaped — hint-driven measurement
// campaigns over large target sets, continuous re-localization of a
// serving population — full of repeated targets, and their wall-clock cost
// is dominated by measurement latency, which overlaps perfectly across
// targets. Engine has one request path for all of it. A request is a group
// of targets under one options set (a single target is a group of one);
// Engine.LocalizeBatchWith borrows one epoch for the group, answers what it can from
// the LRU, coalesces the rest — duplicates inside the group and identical
// targets other concurrent calls are already measuring — hands each
// remaining distinct key to core.LocalizeBatchDeadline exactly once, and
// emits every outcome as it completes. Localize and LocalizeItem run a
// group of one on the caller's goroutine; Run wraps a group in a channel.
//
// The engine does not hold the survey itself — it holds a Provider and
// borrows the current epoch's Localizer once per request. A static
// provider (New) reproduces the fixed-survey behaviour; the lifecycle
// manager is a live provider that republishes recalibrated epochs, and
// because each request borrows exactly one snapshot for its whole
// lifetime, an epoch hot-swap never torn-reads a request: in-flight
// targets finish on the epoch they started with, later requests see the
// new one. Cache entries and coalescing keys are one Key — target,
// options fingerprint, epoch — so a swap never serves a result from the
// superseded calibration: the new epoch's requests cannot name the old
// entries, which age out of the LRU by disuse.
//
// Requests may carry per-request options: LocalizeBatchWith takes them
// resolved, with their fingerprint, and the functional-option entry
// points resolve them once per call. The fingerprint is part of the
// Key, so the same target tuned two ways never shares a result, while
// identical tunings still hit and coalesce. Options that cannot be fingerprinted (custom evidence
// sources) bypass sharing entirely.
//
// A group is homogeneous by construction — one borrowed epoch, one
// options set — so core resolves configuration once for it and amortizes
// the epoch's shared rasterization (projection context, §2.5 land-mask
// masters) and constraint allocation across its targets. TargetTimeout
// applies per target, as a deadline starting when the target's
// measurement starts. Stats reports how much traffic arrived as
// multi-target groups (FusedGroups, FusedTargets) and the mask cache's
// hit rate.
//
// Safety: Survey, Calibration, and the hints.Engine are immutable after
// construction, and netsim.World guards its route cache internally, so
// concurrent localizations are safe as long as the Prober is (both
// bundled probers are). Engine never mutates the Localizer it wraps.
package batch

import (
	"context"
	"errors"
	"fmt"
	"time"

	"octant/internal/core"
	"octant/internal/lru"
)

// Key names one cacheable localization result: the target, the options
// fingerprint ("" for a default request) and the survey epoch it was
// computed under. The engine's LRU and its coalescing flight, the
// /v1/cache/lookup peer read and the cluster front door's L1 all key on
// it, so every tier names a result the same way. A borrower at epoch E
// can only name E's entries; a straggler's result lands under its own
// epoch. Non-cacheable requests never get a Key.
type Key struct {
	Target      string
	Fingerprint string
	Epoch       uint64
}

// Options configures an Engine. The zero value is usable: 4 workers,
// a 1024-entry cache, no per-target timeout.
type Options struct {
	// Workers is how many targets of one call localize concurrently
	// (default 4).
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
	cache    *lru.Cache[Key, *core.Result]
	flight   flight
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
	// Results are cached by pointer: they are never mutated after the
	// solve returns, so sharing them is safe.
	return &Engine{provider: p, opts: opts, cache: lru.New[Key, *core.Result](opts.CacheSize, opts.TTL)}
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
// calls for the same target and options — single or batched — are
// coalesced onto one measurement; requests for the same target under
// different options never share cache entries or measurements (keys carry
// the options fingerprint).
func (e *Engine) Localize(ctx context.Context, target string, opts ...core.LocalizeOption) (*core.Result, error) {
	item := e.LocalizeItem(ctx, target, opts...)
	return item.Result, item.Err
}

// LocalizeItem is Localize with the full item metadata (cache status,
// elapsed time) that serving front ends report per response.
func (e *Engine) LocalizeItem(ctx context.Context, target string, opts ...core.LocalizeOption) (item Item) {
	o, fp := resolve(opts)
	e.LocalizeBatchWith(ctx, []string{target}, o, fp, func(it Item) { item = it })
	return item
}

// Run streams localizations of targets over the returned channel. Items
// arrive in completion order (use Item.Index to restore submission order)
// and the channel closes after the last one. Cancelling ctx stops the
// batch early: in-flight targets abort at their next probe and queued
// ones are reported with ctx's error. opts apply to every target of the
// batch; they are resolved and fingerprinted once here, not per target.
// Up to Options.Workers targets measure concurrently.
//
// The channel holds the whole batch, so the engine never waits on its
// consumer: a slow reader cannot hold up measurements that concurrent
// calls have coalesced onto this one.
func (e *Engine) Run(ctx context.Context, targets []string, opts ...core.LocalizeOption) <-chan Item {
	o, fp := resolve(opts)
	out := make(chan Item, len(targets))
	go func() {
		defer close(out)
		e.LocalizeBatchWith(ctx, targets, o, fp, func(it Item) { out <- it })
	}()
	return out
}

// Collect runs a batch on the calling goroutine and returns results in
// submission order. The error slice is parallel to targets; results[i] is
// nil exactly when errs[i] is non-nil. opts apply to every target.
func (e *Engine) Collect(ctx context.Context, targets []string, opts ...core.LocalizeOption) (results []*core.Result, errs []error) {
	results = make([]*core.Result, len(targets))
	errs = make([]error, len(targets))
	o, fp := resolve(opts)
	e.LocalizeBatchWith(ctx, targets, o, fp, func(it Item) {
		results[it.Index], errs[it.Index] = it.Result, it.Err
	})
	return results, errs
}

// resolve resolves functional options once, for the entry points that
// take them. No options stay allocation-free: (nil, "").
func resolve(opts []core.LocalizeOption) (*core.LocalizeOptions, string) {
	if len(opts) == 0 {
		return nil, ""
	}
	o := core.NewLocalizeOptions(opts...)
	return &o, o.Fingerprint()
}

// waiter is one distinct key a call could not answer from the cache: the
// submitted positions that want it and, once joined, the flight it rides.
// Only key.Target is meaningful when the options are not cacheable.
type waiter struct {
	key  Key
	idx  []int
	call *flightCall
}

// LocalizeBatchWith is the engine's one request path, over options the
// caller resolved once: o (nil = defaults) and fp, its Fingerprint — the
// node resolves a request's wire options into both (serve's
// WireOptions.Resolve). It mirrors core's LocalizeBatchWith. It borrows
// the provider's current epoch once, up front, and uses that one snapshot
// for the cache lookups, the coalescing keys, and the measurements — the
// call is epoch-consistent end to end even if a swap lands mid-flight.
// Every submitted target is emitted exactly once, on the calling
// goroutine: cache hits first, measured and coalesced outcomes as they
// complete; emit should not block (Run hands items to a channel that
// holds the whole batch). Options that cannot be fingerprinted by
// content (custom evidence sources, a geo-DB provider) share nothing: no
// cache read, no cache insertion, no coalescing — every occurrence
// measures independently. Metrics count one request per submitted
// target, hits and misses at the cache, and one coalesced per delivery
// that rode a measurement some other position or call started.
func (e *Engine) LocalizeBatchWith(ctx context.Context, targets []string, o *core.LocalizeOptions, fp string, emit func(Item)) {
	cacheable := o.Cacheable()
	start := time.Now()
	for range targets {
		e.metrics.begin()
	}
	loc := e.provider.CurrentLocalizer()
	epoch := loc.Survey.Epoch
	if len(targets) > 1 {
		e.metrics.fused(len(targets))
	}
	if err := ctx.Err(); err != nil {
		for i, t := range targets {
			emit(Item{Index: i, Target: t, Epoch: epoch, Err: err})
			e.metrics.end()
		}
		return
	}

	// Cache partition plus within-call coalescing.
	var pending []waiter
	var seen map[Key]int // key → position in pending; multi-target calls only
	for i, t := range targets {
		key := Key{Target: t, Fingerprint: fp, Epoch: epoch}
		if cacheable {
			if res, ok := e.cache.Get(key); ok {
				e.metrics.hit()
				emit(Item{Index: i, Target: t, Epoch: epoch, Result: res, Cached: true, Elapsed: time.Since(start)})
				e.metrics.end()
				continue
			}
			if j, dup := seen[key]; dup {
				e.metrics.miss()
				pending[j].idx = append(pending[j].idx, i)
				continue
			}
			if len(targets) > 1 {
				if seen == nil {
					seen = make(map[Key]int)
				}
				seen[key] = len(pending)
			}
		}
		e.metrics.miss()
		pending = append(pending, waiter{key: key, idx: []int{i}})
	}

	// deliver emits one settled outcome to every position waiting on it.
	// shared marks an outcome some other call measured; within this call
	// every position after the first shares the first's.
	deliver := func(w *waiter, res *core.Result, err error, shared bool) {
		elapsed := time.Since(start)
		for n, i := range w.idx {
			if shared || n > 0 {
				e.metrics.coalesce()
			}
			item := Item{Index: i, Target: w.key.Target, Epoch: epoch, Elapsed: elapsed}
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
			e.metrics.end()
		}
	}

	// Each round leads what nobody else is measuring, then follows the
	// rest. Leaders always finish their own measurements before waiting on
	// anyone else's, so two calls that each lead a key the other follows
	// cannot deadlock; followers wait under their own context only. A
	// follower whose leader was cancelled or timed out under the leader's
	// own context learned nothing about this call: it goes round again,
	// leading (or re-coalescing) under this call's context.
	for len(pending) > 0 {
		var led, following []waiter
		for _, w := range pending {
			leader := true
			if cacheable {
				// The Key carries the epoch and the fingerprint: a follower
				// never receives a result computed on a snapshot — or
				// under options — it did not ask for.
				w.call, leader = e.flight.join(w.key)
			}
			if leader {
				led = append(led, w)
			} else {
				following = append(following, w)
			}
		}

		if len(led) > 0 {
			measure := make([]string, len(led))
			for j := range led {
				measure[j] = led[j].key.Target
			}
			loc.LocalizeBatchDeadline(ctx, measure, e.opts.Workers, e.opts.TargetTimeout, o, func(j int, res *core.Result, err error) {
				w := &led[j]
				if err != nil {
					// Cancellations and per-target deadline expiries
					// surface as "batch: <target>: <ctx error>".
					if sentinel := ctxSentinel(err); sentinel != nil {
						err = fmt.Errorf("batch: %s: %w", w.key.Target, sentinel)
					}
				} else {
					// Once per computed result, not per delivery.
					e.metrics.observePriors(res)
					if cacheable && !res.Degraded {
						// Degraded results are served but never cached:
						// the failure that degraded them is transient, and
						// a cached entry would keep answering from partial
						// evidence long after the network healed.
						e.cache.Put(w.key, res)
					}
				}
				if w.call != nil {
					e.flight.finish(w.call, res, err)
				}
				deliver(w, res, err, false)
			})
		}

		pending = nil
		for i := range following {
			w := &following[i]
			select {
			case <-w.call.done:
			case <-ctx.Done():
				deliver(w, nil, ctx.Err(), true)
				continue
			}
			if ctxSentinel(w.call.err) != nil {
				pending = append(pending, *w)
				continue
			}
			deliver(w, w.call.val, w.call.err, true)
		}
	}
}

// ctxSentinel returns the context error err wraps, if any.
func ctxSentinel(err error) error {
	for _, sentinel := range [...]error{context.Canceled, context.DeadlineExceeded} {
		if errors.Is(err, sentinel) {
			return sentinel
		}
	}
	return nil
}

// Peek looks up the cached result for key without measuring, coalescing,
// or counting a request; /v1/cache/lookup serves it. Entries from
// non-cacheable requests never exist (they bypass the LRU on insert), so
// Peek can never leak an un-shareable result. It finds only the entry
// computed under key.Epoch, never one from another epoch.
func (e *Engine) Peek(key Key) (*core.Result, bool) {
	res, ok := e.cache.Get(key)
	if ok {
		e.metrics.peerHit()
	}
	return res, ok
}

// InFlight reports how many requests the engine currently has in flight —
// cheaper to poll than Stats, which snapshots the whole latency window.
func (e *Engine) InFlight() int64 { return e.metrics.inFlight.Load() }

// Stats returns a snapshot of the engine's counters and latency quantiles.
func (e *Engine) Stats() Stats {
	s := e.metrics.snapshot()
	s.CacheLen, s.CacheCap = e.cache.Len(), e.cache.Cap()
	s.Workers = e.opts.Workers
	loc := e.provider.CurrentLocalizer()
	s.Epoch = loc.Survey.Epoch
	s.LandMasks = loc.LandMasks().Stats()
	s.Solver = loc.LandMasks().SolverStats()
	return s
}
