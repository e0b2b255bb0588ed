package batch_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/probe"
)

// gatedProber counts ping trains per destination and parks the ones hold
// selects until the gate opens. It is a probe.ContextProber, so a
// cancelled request aborts its parked trains at once instead of waiting
// for the gate.
type gatedProber struct {
	probe.Prober
	// hold reports whether the nth (1-based) train to dst parks.
	hold func(dst string, nth int) bool
	gate chan struct{}
	// parked receives dst each time a train parks.
	parked chan string

	mu    sync.Mutex
	pings map[string]int
}

func newGatedProber(p probe.Prober, hold func(dst string, nth int) bool) *gatedProber {
	return &gatedProber{
		Prober: p,
		hold:   hold,
		gate:   make(chan struct{}),
		parked: make(chan string, 1<<14), // far more than any test's trains: sends never block
		pings:  make(map[string]int),
	}
}

func (g *gatedProber) Ping(src, dst string, n int) ([]float64, error) {
	return g.PingContext(context.Background(), src, dst, n)
}

func (g *gatedProber) PingContext(ctx context.Context, src, dst string, n int) ([]float64, error) {
	g.mu.Lock()
	g.pings[dst]++
	nth := g.pings[dst]
	g.mu.Unlock()
	if g.hold(dst, nth) {
		g.parked <- dst
		select {
		case <-g.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.Prober.Ping(src, dst, n)
}

func (g *gatedProber) TracerouteContext(_ context.Context, src, dst string) ([]probe.Hop, error) {
	return g.Prober.Traceroute(src, dst)
}

func (g *gatedProber) trains(dst string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pings[dst]
}

// awaitParked blocks until every target in want has parked at least n
// trains.
func (g *gatedProber) awaitParked(t *testing.T, n int, want ...string) {
	t.Helper()
	missing := make(map[string]int, len(want))
	for _, w := range want {
		missing[w] = n
	}
	timeout := time.After(10 * time.Second)
	for len(missing) > 0 {
		select {
		case dst := <-g.parked:
			if missing[dst]--; missing[dst] <= 0 {
				delete(missing, dst)
			}
		case <-timeout:
			t.Fatalf("trains still to park: %v", missing)
		}
	}
}

// wideOpen keeps the measurement scheduler's global cap out of the way,
// so trains parked for one target never starve another's.
var wideOpen = core.Config{MeasureWorkers: 4096}

// TestConcurrentBatchesShareMeasurements: two concurrent Run batches with
// targets in common measure each shared target exactly once — the second
// batch follows the first's in-flight measurements instead of probing
// again — and Coalesced counts the cross-batch followers.
func TestConcurrentBatchesShareMeasurements(t *testing.T) {
	f := sharedFixture(t)
	gp := newGatedProber(f.prober, func(string, int) bool { return true })
	eng := batch.New(core.NewLocalizer(gp, f.survey, wideOpen), batch.Options{Workers: 4})
	ctx := context.Background()
	a := []string{f.targets[20], f.targets[21], f.targets[22]}
	b := []string{f.targets[21], f.targets[22], f.targets[23]}

	itemsA := eng.Run(ctx, a)
	gp.awaitParked(t, 1, a...)
	// A now leads all three of its targets. B leads only its own; once
	// that one is probing, B has joined A's flights for the other two.
	itemsB := eng.Run(ctx, b)
	gp.awaitParked(t, 1, b[2])
	close(gp.gate)

	got := map[string][]*core.Result{}
	for _, items := range []<-chan batch.Item{itemsA, itemsB} {
		for item := range items {
			if item.Err != nil {
				t.Fatalf("%s: %v", item.Target, item.Err)
			}
			got[item.Target] = append(got[item.Target], item.Result)
		}
	}
	n := f.survey.N()
	for _, tgt := range f.targets[20:24] {
		if trains := gp.trains(tgt); trains != n {
			t.Errorf("%s: %d ping trains, want %d (one measurement)", tgt, trains, n)
		}
	}
	for _, tgt := range b[:2] {
		if rs := got[tgt]; len(rs) != 2 || rs[0] != rs[1] {
			t.Errorf("%s: batches did not share one *Result: %v", tgt, rs)
		}
	}
	s := eng.Stats()
	if s.Coalesced != 2 || s.Requests != 6 || s.CacheMisses != 6 || s.CacheHits != 0 {
		t.Errorf("stats = %d coalesced / %d requests / %d misses / %d hits, want 2 / 6 / 6 / 0",
			s.Coalesced, s.Requests, s.CacheMisses, s.CacheHits)
	}
}

// TestCyclicBatchesJoinAndFinish is the join/finish stress: N concurrent
// batches per epoch, over two epochs, whose target sets overlap in a ring
// — batch i shares a target with batch i−1 and one with batch i+1, and
// has one of its own. Each epoch measures through its own gated prober,
// whose first train per target parks until every batch of both epochs
// has made its joins, so every leader waits on its own trains while it
// is some other batch's follower. Every call must return, each (target,
// epoch) must be measured exactly once, and no result may cross epochs.
func TestCyclicBatchesJoinAndFinish(t *testing.T) {
	f := sharedFixture(t)
	const N = 8
	own, ring := f.targets[:N], f.targets[N:2*N]
	next, err := f.survey.Refit(f.survey.RTT, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := func(_ string, nth int) bool { return nth == 1 }
	probers := []*gatedProber{newGatedProber(f.prober, first), newGatedProber(f.prober, first)}
	surveys := []*core.Survey{f.survey, next}
	prov := &swapProvider{}
	eng := batch.NewWithProvider(prov, batch.Options{Workers: 4})

	var mu sync.Mutex
	got := map[batch.Key][]*core.Result{}
	var wg sync.WaitGroup
	for e, gp := range probers {
		prov.publish(core.NewLocalizer(gp, surveys[e], wideOpen))
		for i := 0; i < N; i++ {
			wg.Add(1)
			go func(targets []string) {
				defer wg.Done()
				for item := range eng.Run(context.Background(), targets) {
					if item.Err != nil || item.Epoch != uint64(e) {
						t.Errorf("%s: epoch %d err %v, want epoch %d", item.Target, item.Epoch, item.Err, e)
						continue
					}
					mu.Lock()
					key := batch.Key{Target: item.Target, Epoch: item.Epoch}
					got[key] = append(got[key], item.Result)
					mu.Unlock()
				}
			}([]string{ring[i], own[i], ring[(i+1)%N]})
		}
		// Each own target is led by its one batch: once they all park, every
		// batch of this epoch has borrowed it and joined its flights.
		gp.awaitParked(t, 1, own...)
	}
	for _, gp := range probers {
		close(gp.gate)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cyclically overlapping batches did not all return: join/finish deadlock")
	}

	n := f.survey.N()
	for e, gp := range probers {
		for _, tgt := range f.targets[:2*N] {
			if trains := gp.trains(tgt); trains != n {
				t.Errorf("epoch %d, %s: %d ping trains, want %d (one measurement)", e, tgt, trains, n)
			}
		}
		for _, tgt := range ring {
			rs := got[batch.Key{Target: tgt, Epoch: uint64(e)}]
			if len(rs) != 2 || rs[0] != rs[1] {
				t.Errorf("epoch %d, %s: the two batches did not share one *Result: %v", e, tgt, rs)
			}
			if other := got[batch.Key{Target: tgt, Epoch: uint64(1 - e)}]; len(rs) > 0 && len(other) > 0 && rs[0] == other[0] {
				t.Errorf("%s: epochs 0 and 1 share a result", tgt)
			}
		}
	}
	if s := eng.Stats(); s.Coalesced != 2*N || s.Requests != 2*3*N {
		t.Errorf("stats = %d coalesced / %d requests, want %d / %d", s.Coalesced, s.Requests, 2*N, 2*3*N)
	}
}

// TestBatchOverlapsAcrossTargets: under the default configuration an
// 8-target batch has trains to at least two distinct targets in flight at
// once — the fact the retired fused-bulk (≥ 5×) and per-node (≥ 3×)
// throughput floors timed. Only each target's first train parks (holding
// one of the scheduler's 16 probe slots until the gate opens), so the
// count does not depend on which target's fan-out wins the other slots;
// a serialized engine or a one-worker scheduler parks one train, ever.
func TestBatchOverlapsAcrossTargets(t *testing.T) {
	f := sharedFixture(t)
	gp := newGatedProber(f.prober, func(_ string, nth int) bool { return nth == 1 })
	eng := batch.New(core.NewLocalizer(gp, f.survey, core.Config{}), batch.Options{CacheSize: -1})
	targets := f.targets[:8]

	items := eng.Run(context.Background(), targets)
	inFlight := map[string]bool{}
	timeout := time.After(10 * time.Second)
	for len(inFlight) < 2 {
		select {
		case dst := <-gp.parked:
			inFlight[dst] = true
		case <-timeout:
			close(gp.gate)
			t.Fatalf("trains to %d distinct targets in flight at once, want ≥ 2: the batch is measuring one target at a time", len(inFlight))
		}
	}
	close(gp.gate)
	for item := range items {
		if item.Err != nil {
			t.Errorf("%s: %v", item.Target, item.Err)
		}
	}
}

// TestCancelledLeaderDoesNotPoisonBatchFollower holds batches to the
// contract TestCancelledLeaderDoesNotPoisonFollowers holds single calls
// to: a batch following another call's in-flight measurement re-runs that
// target itself when the leader is cancelled, and gets a healthy result.
func TestCancelledLeaderDoesNotPoisonBatchFollower(t *testing.T) {
	f := sharedFixture(t)
	n := f.survey.N()
	shared, own := f.targets[24], f.targets[25]
	// Only the leader's trains park: the first n to the shared target.
	gp := newGatedProber(f.prober, func(dst string, nth int) bool { return dst == shared && nth <= n })
	eng := batch.New(core.NewLocalizer(gp, f.survey, wideOpen), batch.Options{Workers: 4, CacheSize: -1})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := eng.Localize(leaderCtx, shared)
		leaderDone <- err
	}()
	// All n of the leader's trains, not just the first: the count below
	// must not race the leader's fan-out.
	gp.awaitParked(t, n, shared)

	items := eng.Run(context.Background(), []string{own, shared})
	first := <-items
	if first.Target != own || first.Err != nil {
		t.Fatalf("first item = %s err %v, want %s healthy", first.Target, first.Err, own)
	}
	// The batch is past its joins, and every train to the shared target
	// so far is the leader's: the batch is following, not probing.
	if trains := gp.trains(shared); trains != n {
		t.Fatalf("%d trains to the shared target while the leader is in flight, want the leader's %d", trains, n)
	}

	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	second, ok := <-items
	if !ok || second.Target != shared {
		t.Fatalf("second item = %+v (open %v), want %s", second, ok, shared)
	}
	if second.Err != nil || second.Result == nil {
		t.Errorf("batch follower inherited the leader's fate: err %v", second.Err)
	}
	if trains := gp.trains(shared); trains != 2*n {
		t.Errorf("%d trains to the shared target, want %d (the leader's aborted walk, then the follower's own)", trains, 2*n)
	}
}

// TestSingleTargetIsBatchOfOne: LocalizeItem(t) and Collect([t]) are the
// same path — same result bits, same counter movement, miss and hit —
// a one-target Run starts no worker pool, and a zero-target Run just
// closes its channel.
func TestSingleTargetIsBatchOfOne(t *testing.T) {
	f := sharedFixture(t)
	ctx := context.Background()
	tgt := f.targets[26]
	counters := func(e *batch.Engine) [4]uint64 {
		s := e.Stats()
		return [4]uint64{s.Requests, s.CacheHits, s.CacheMisses, s.Coalesced}
	}

	single := batch.New(core.NewLocalizer(f.prober, f.survey, core.Config{}), batch.Options{Workers: 8})
	group := batch.New(core.NewLocalizer(f.prober, f.survey, core.Config{}), batch.Options{Workers: 8})
	for _, pass := range []string{"miss", "hit"} {
		item := single.LocalizeItem(ctx, tgt)
		results, errs := group.Collect(ctx, []string{tgt})
		if item.Err != nil || errs[0] != nil {
			t.Fatalf("%s: errs %v / %v", pass, item.Err, errs[0])
		}
		a, b := item.Result, results[0]
		if a.Point != b.Point || a.AreaKm2 != b.AreaKm2 || a.Weight != b.Weight ||
			a.TargetHeightMs != b.TargetHeightMs || !reflect.DeepEqual(a.RTTs, b.RTTs) ||
			!reflect.DeepEqual(a.Region.Rings, b.Region.Rings) || len(a.Constraints) != len(b.Constraints) {
			t.Errorf("%s: LocalizeItem and Collect disagree: %v/%v km² vs %v/%v km²", pass, a.Point, a.AreaKm2, b.Point, b.AreaKm2)
		}
		if cs, cg := counters(single), counters(group); cs != cg {
			t.Errorf("%s: counters (requests, hits, misses, coalesced) = %v via LocalizeItem, %v via Collect", pass, cs, cg)
		}
	}
	if s := group.Stats(); s.FusedGroups != 0 || s.FusedTargets != 0 {
		t.Errorf("one-target calls counted as fused: %d groups / %d targets", s.FusedGroups, s.FusedTargets)
	}

	// One engine goroutine (Run's) plus the one-worker scheduler's single
	// fan-out goroutine, however wide the engine's worker setting is.
	gp := newGatedProber(f.prober, func(string, int) bool { return true })
	eng := batch.New(core.NewLocalizer(gp, f.survey, core.Config{MeasureWorkers: 1}), batch.Options{Workers: 8})
	before := runtime.NumGoroutine()
	items := eng.Run(ctx, []string{tgt})
	gp.awaitParked(t, 1, tgt)
	if delta := runtime.NumGoroutine() - before; delta > 2 {
		t.Errorf("one-target Run is holding %d goroutines, want ≤ 2 (no worker pool)", delta)
	}
	close(gp.gate)
	if item := <-items; item.Err != nil {
		t.Fatal(item.Err)
	}

	requests := eng.Stats().Requests
	if _, open := <-eng.Run(ctx, nil); open {
		t.Error("zero-target Run delivered an item")
	}
	if got := eng.Stats().Requests; got != requests {
		t.Errorf("zero-target Run counted %d requests", got-requests)
	}
}
