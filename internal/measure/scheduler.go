// Package measure is the concurrent measurement scheduler and the one
// place a probe train is issued: every ping and traceroute — a
// localization's landmark fan-out and router traces, a survey's or a
// refresh's landmark-pair sweep, and the GeoLim, GeoPing and GeoTrack
// baselines — goes through a Scheduler, which fans the probes out
// through a bounded worker pool while keeping the *results* shaped
// exactly like a sequential loop's. With one worker it is the
// sequential loop. A ping is always the same train: Ping under the
// caller's context, then probe.MinRTT.
//
// The solver takes 2–3 ms per target and a ping train over a real path
// tens of milliseconds, so end-to-end localization latency is
// measurement wall-clock: one serialized ping train per
// landmark, one traceroute per selected landmark, O(k²) pings per survey
// build. The scheduler overlaps those probes under three rules:
//
//   - Bounded fan-out. A global in-flight cap (Config.Workers) bounds
//     concurrent probes across every round sharing the scheduler, and a
//     per-landmark token bucket (perLandmark concurrent trains)
//     keeps parallelism from hammering any single vantage point — the property a real
//     deployment needs so 16-way target fan-out never looks like an
//     attack to one landmark's rate limiter. A round runs on its
//     caller plus up to Workers − 1 helper goroutines, each started by a
//     worker that found a slot, and returns once every claimed slot has
//     settled; a helper that starts late finds no slot and exits.
//
//   - Slot-indexed placement. Every fan-out writes result i into the
//     caller's slot i, so downstream consumers see landmark order —
//     failure lists, provenance, and NaN degraded slots are bit-identical
//     to the sequential path regardless of completion order. Error
//     selection follows the same rule: the lowest errored slot is the
//     round's error, which is exactly the "first error in loop order"
//     the sequential code reported (slots are dispatched in order, so
//     every slot below a failed one was dispatched before it).
//
// Every slot is a fresh train: the scheduler keeps no measurement
// between rounds. Repeats of one request are served above it, by the
// batch engine's LRU and the cluster's front-door tier.
package measure

import (
	"context"
	"sync"
	"sync/atomic"

	"octant/internal/probe"
)

// Config shapes a Scheduler. The zero value means "defaults": 16
// concurrent probes, 4 per landmark.
type Config struct {
	// Workers caps concurrent probes across all rounds sharing the
	// scheduler (default 16). One worker is the serialized probe loop —
	// slots run in order, one at a time — and a negative count means one.
	Workers int
}

func (c *Config) fillDefaults() {
	if c.Workers == 0 {
		c.Workers = 16
	}
	if c.Workers < 0 {
		c.Workers = 1
	}
}

// perLandmark caps concurrent probe trains issued from one source
// landmark.
const perLandmark = 4

// Scheduler is a concurrent probe scheduler. One Scheduler is shared by
// every localization, single or batched, against one survey generation
// chain, so its buckets express a real per-landmark budget, not a
// per-request one. The lifecycle refresher runs its own, so a refresh's
// trains are budgeted apart from serving's caps. All methods are safe
// for concurrent use.
type Scheduler struct {
	cfg Config

	global chan struct{} // global in-flight probe cap

	mu      sync.Mutex
	buckets map[string]chan struct{}

	pings          atomic.Uint64
	pingFailures   atomic.Uint64
	traceroutes    atomic.Uint64
	traceFailures  atomic.Uint64
	rounds         atomic.Uint64
	cancelledRound atomic.Uint64
}

// New builds a Scheduler.
func New(cfg Config) *Scheduler {
	cfg.fillDefaults()
	return &Scheduler{
		cfg:     cfg,
		global:  make(chan struct{}, cfg.Workers),
		buckets: make(map[string]chan struct{}),
	}
}

// Stats is a point-in-time snapshot of scheduler activity, shaped for
// the octant-serve /v1/stats "measure" section.
type Stats struct {
	// Workers and PerLandmark echo the caps.
	Workers     int `json:"workers"`
	PerLandmark int `json:"per_landmark"`
	// Pings counts probe trains issued; PingFailures the subset that
	// errored.
	Pings        uint64 `json:"pings"`
	PingFailures uint64 `json:"ping_failures"`
	// Traceroutes / TracerouteFailures mirror Pings for path probes.
	Traceroutes        uint64 `json:"traceroutes"`
	TracerouteFailures uint64 `json:"traceroute_failures"`
	// CacheHits, CacheMisses and Deduped are always 0: the scheduler
	// neither caches nor shares trains. They stay for stats readers.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Deduped     uint64 `json:"deduped"`
	// Rounds counts fan-out rounds; CancelledRounds the subset whose
	// context expired mid-round.
	Rounds          uint64 `json:"rounds"`
	CancelledRounds uint64 `json:"cancelled_rounds"`
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Workers:            s.cfg.Workers,
		PerLandmark:        perLandmark,
		Pings:              s.pings.Load(),
		PingFailures:       s.pingFailures.Load(),
		Traceroutes:        s.traceroutes.Load(),
		TracerouteFailures: s.traceFailures.Load(),
		Rounds:             s.rounds.Load(),
		CancelledRounds:    s.cancelledRound.Load(),
	}
}

// bucket returns src's token bucket: a semaphore bounding concurrent
// trains from one landmark.
func (s *Scheduler) bucket(src string) chan struct{} {
	s.mu.Lock()
	b := s.buckets[src]
	if b == nil {
		b = make(chan struct{}, perLandmark)
		s.buckets[src] = b
	}
	s.mu.Unlock()
	return b
}

// acquire takes one probe slot for src: per-landmark token first, then
// the global cap. Only the acquisition order matters for liveness —
// global-slot holders are always probing, never waiting on a landmark
// token, so the two semaphores cannot deadlock.
func (s *Scheduler) acquire(ctx context.Context, src string) (chan struct{}, error) {
	b := s.bucket(src)
	select {
	case b <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case s.global <- struct{}{}:
	case <-ctx.Done():
		<-b
		return nil, ctx.Err()
	}
	return b, nil
}

func (s *Scheduler) release(b chan struct{}) {
	<-s.global
	<-b
}

// fan is one fan-out round: slots claimed in order off an atomic counter.
// Claim-in-order is what makes lowest-errored-slot equal the sequential
// loop's first error.
type fan struct {
	ctx  context.Context
	n    int
	job  func(slot int) error
	errs []error
	// stopOnErr aborts dispatch after the first error (survey semantics:
	// the sequential loop returned at its first failed pair). Without it
	// every slot settles (localization semantics: failures degrade, they
	// don't abort).
	stopOnErr bool

	next    atomic.Int64
	aborted atomic.Bool
	spawn   atomic.Int64  // helpers not yet started
	settled atomic.Int64  // claimed slots run or skipped
	done    chan struct{} // closed when settled reaches n; nil without helpers
}

// work claims and runs slots; whoever settles the last one closes done.
// A worker starts the next helper at its first slot, so a round grows
// only while its workers find work.
func (f *fan) work() {
	settled := 0
	for {
		slot := int(f.next.Add(1)) - 1
		if slot >= f.n {
			break
		}
		if settled == 0 && f.spawn.Add(-1) >= 0 {
			go f.work()
		}
		settled++
		if f.stopOnErr && f.aborted.Load() {
			continue
		}
		if err := f.job(slot); err != nil {
			f.errs[slot] = err
			if f.stopOnErr {
				f.aborted.Store(true)
			}
		}
	}
	if settled > 0 && f.settled.Add(int64(settled)) == int64(f.n) && f.done != nil {
		close(f.done)
	}
}

// run works the round on the calling goroutine plus up to
// min(Workers, n) − 1 helpers and returns once every claimed slot has
// settled: a helper that starts late finds no slot and exits, and with
// one worker it is the sequential loop with no goroutine.
func (s *Scheduler) run(f *fan) {
	s.rounds.Add(1)
	if helpers := min(s.cfg.Workers, f.n) - 1; helpers > 0 {
		f.done = make(chan struct{})
		f.spawn.Store(int64(helpers))
	}
	f.work()
	if f.done != nil {
		<-f.done
	}
	if f.ctx.Err() != nil {
		s.cancelledRound.Add(1)
	}
}

// PingMinInto fans out Ping(srcs[i], dst, n) for every i and writes the
// min-filtered RTT into out[i]; errs[i] records slot i's failure (probe
// error or min-filter error), nil on success. Slots settle independently
// — a failed landmark never aborts the others — and all slots have
// settled when the call returns. Every slot is one fresh train; the
// unnamed uint64 is unused and kept for callers that pass a survey epoch.
//
// out and errs must have len(srcs). ctx reaches the prober's
// context-aware calls (probe.ContextProber), so a cancelled round
// interrupts the trains already on the wire; retry wrappers
// (probe.WithRetry) and context binding compose under the scheduler
// unchanged.
func (s *Scheduler) PingMinInto(ctx context.Context, p probe.Prober, srcs []string, dst string, n int, _ uint64, out []float64, errs []error) {
	f := &fan{
		ctx: ctx,
		n:   len(srcs),
		job: func(i int) error {
			min, err := s.pingMinProbe(ctx, p, srcs[i], dst, n)
			if err != nil {
				return err
			}
			out[i] = min
			return nil
		},
		errs: errs,
	}
	s.run(f)
}

// PingPairsInto measures each pair of addrs — a ping train from
// addrs[pairs[i][0]] to addrs[pairs[i][1]], min-filtered — into out[i].
// It is the landmark-pair sweep of a survey and of a refresh.
// Dispatch stops at the first failure; the sweep drains the slots in
// flight and returns the lowest failed slot with its error — the pair a
// sequential walk would have aborted on — or (-1, nil) when every pair
// succeeded. out must have len(pairs).
func (s *Scheduler) PingPairsInto(ctx context.Context, p probe.Prober, addrs []string, pairs [][2]int, n int, out []float64) (int, error) {
	f := &fan{
		ctx: ctx,
		n:   len(pairs),
		job: func(i int) error {
			min, err := s.pingMinProbe(ctx, p, addrs[pairs[i][0]], addrs[pairs[i][1]], n)
			out[i] = min
			return err
		},
		errs:      make([]error, len(pairs)),
		stopOnErr: true,
	}
	s.run(f)
	for i, err := range f.errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// pingMinProbe issues one paced probe train under ctx and min-filters
// it: the one ping job every fan-out and sweep runs.
func (s *Scheduler) pingMinProbe(ctx context.Context, p probe.Prober, src, dst string, n int) (float64, error) {
	b, err := s.acquire(ctx, src)
	if err != nil {
		return 0, err
	}
	samples, err := probe.PingIn(ctx, p, src, dst, n)
	s.release(b)
	s.pings.Add(1)
	if err == nil {
		var min float64
		if min, err = probe.MinRTT(samples); err == nil {
			return min, nil
		}
	}
	s.pingFailures.Add(1)
	return 0, err
}

// TracerouteInto fans out Traceroute(srcs[i], dst) for every i, writing
// hop lists into hops[i] and failures into errs[i]. Traceroutes are
// paced per source like pings.
func (s *Scheduler) TracerouteInto(ctx context.Context, p probe.Prober, srcs []string, dst string, hops [][]probe.Hop, errs []error) {
	f := &fan{
		ctx: ctx,
		n:   len(srcs),
		job: func(i int) error {
			b, err := s.acquire(ctx, srcs[i])
			if err != nil {
				s.traceFailures.Add(1)
				return err
			}
			h, err := probe.TracerouteIn(ctx, p, srcs[i], dst)
			s.release(b)
			s.traceroutes.Add(1)
			if err != nil {
				s.traceFailures.Add(1)
				return err
			}
			hops[i] = h
			return nil
		},
		errs: errs,
	}
	s.run(f)
}
