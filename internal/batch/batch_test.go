package batch_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/netsim"
	"octant/internal/probe"
)

// fixture builds one simulated world with the first nTargets hosts held
// out as targets and the rest surveyed as landmarks.
type fixture struct {
	prober  probe.Prober
	survey  *core.Survey
	targets []string
}

var (
	fixOnce sync.Once
	fix     fixture
	fixErr  error
)

func sharedFixture(t *testing.T) fixture {
	t.Helper()
	fixOnce.Do(func() {
		world := netsim.NewWorld(netsim.Config{Seed: 7})
		prober := probe.NewSimProber(world)
		hosts := world.HostNodes()
		const nTargets = 32
		var landmarks []core.Landmark
		targets := make([]string, 0, nTargets)
		for i, h := range hosts {
			if i < nTargets {
				targets = append(targets, h.Name)
				continue
			}
			landmarks = append(landmarks, core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
		}
		survey, err := core.NewSurvey(prober, landmarks, core.SurveyOpts{UseHeights: true})
		if err != nil {
			fixErr = err
			return
		}
		fix = fixture{prober: prober, survey: survey, targets: targets}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

// TestEngineMatchesSequential is the concurrency-correctness gate: 32
// simulated targets through an 8-worker engine must produce exactly the
// point estimates sequential Localize produces (the sim world is
// deterministic, so any divergence is a shared-state bug).
func TestEngineMatchesSequential(t *testing.T) {
	f := sharedFixture(t)
	loc := core.NewLocalizer(f.prober, f.survey, core.Config{})

	want := make([]*core.Result, len(f.targets))
	for i, tgt := range f.targets {
		res, err := loc.LocalizeContext(context.Background(), tgt)
		if err != nil {
			t.Fatalf("sequential %s: %v", tgt, err)
		}
		want[i] = res
	}

	eng := batch.New(loc, batch.Options{Workers: 8})
	got, errs := eng.Collect(context.Background(), f.targets)
	for i, tgt := range f.targets {
		if errs[i] != nil {
			t.Fatalf("batch %s: %v", tgt, errs[i])
		}
		if got[i].Point != want[i].Point {
			t.Errorf("%s: batch point %v != sequential %v", tgt, got[i].Point, want[i].Point)
		}
		if got[i].AreaKm2 != want[i].AreaKm2 {
			t.Errorf("%s: batch area %v != sequential %v", tgt, got[i].AreaKm2, want[i].AreaKm2)
		}
	}
}

func TestRunStreamsAllTargetsWithIndexes(t *testing.T) {
	f := sharedFixture(t)
	loc := core.NewLocalizer(f.prober, f.survey, core.Config{})
	eng := batch.New(loc, batch.Options{Workers: 4})

	seen := make(map[int]bool)
	for item := range eng.Run(context.Background(), f.targets[:8]) {
		if item.Err != nil {
			t.Fatalf("%s: %v", item.Target, item.Err)
		}
		if item.Target != f.targets[item.Index] {
			t.Errorf("index %d reports target %q, want %q", item.Index, item.Target, f.targets[item.Index])
		}
		if seen[item.Index] {
			t.Errorf("index %d delivered twice", item.Index)
		}
		seen[item.Index] = true
	}
	if len(seen) != 8 {
		t.Errorf("delivered %d items, want 8", len(seen))
	}
}

// countingProber counts Ping calls so tests can assert how many real
// measurements happened beneath the cache and the flight group.
type countingProber struct {
	probe.Prober
	pings atomic.Int64
	delay time.Duration
}

func (c *countingProber) Ping(src, dst string, n int) ([]float64, error) {
	c.pings.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return c.Prober.Ping(src, dst, n)
}

func TestCacheServesRepeatsWithoutProbing(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober}
	loc := core.NewLocalizer(cp, f.survey, core.Config{})
	eng := batch.New(loc, batch.Options{Workers: 2})

	first, err := eng.Localize(context.Background(), f.targets[0])
	if err != nil {
		t.Fatal(err)
	}
	probed := cp.pings.Load()
	if probed == 0 {
		t.Fatal("first localization issued no probes")
	}
	second, err := eng.Localize(context.Background(), f.targets[0])
	if err != nil {
		t.Fatal(err)
	}
	if cp.pings.Load() != probed {
		t.Errorf("cached repeat issued %d extra probes", cp.pings.Load()-probed)
	}
	if second != first {
		t.Error("cache should return the same *Result")
	}
	s := eng.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 1 || s.Requests != 2 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 2 requests", s)
	}
	if s.HitRate != 0.5 {
		t.Errorf("hit rate %v, want 0.5", s.HitRate)
	}
}

func TestCoalescingDeduplicatesConcurrentTargets(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober, delay: time.Millisecond}
	loc := core.NewLocalizer(cp, f.survey, core.Config{})
	// Cache disabled so every request reaches the flight group.
	eng := batch.New(loc, batch.Options{Workers: 8, CacheSize: -1})

	const n = 8
	var wg sync.WaitGroup
	results := make([]*core.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Localize(context.Background(), f.targets[1])
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	s := eng.Stats()
	if s.Coalesced == 0 {
		t.Errorf("no coalescing across %d concurrent identical requests (stats %+v)", n, s)
	}
	for i := 1; i < n; i++ {
		if results[i] != nil && results[0] != nil && results[i].Point != results[0].Point {
			t.Errorf("request %d got a different point than request 0", i)
		}
	}
}

// TestCancelledLeaderDoesNotPoisonFollowers: when the goroutine that is
// actually measuring a target has its context cancelled, a healthy
// concurrent request for the same target must still succeed (by retrying
// as the new leader), not inherit the cancellation error.
func TestCancelledLeaderDoesNotPoisonFollowers(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober, delay: 2 * time.Millisecond}
	// One-worker measurement keeps the leader mid-measurement for the
	// whole ~86ms the sleeps below assume; the engine-level flight group
	// under test is independent of how probes are scheduled.
	loc := core.NewLocalizer(cp, f.survey, core.Config{MeasureWorkers: 1})
	eng := batch.New(loc, batch.Options{Workers: 4, CacheSize: -1})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := eng.Localize(leaderCtx, f.targets[3])
		leaderDone <- err
	}()
	// Give the leader time to enter the flight group, then join as a
	// healthy follower and cancel the leader mid-measurement.
	time.Sleep(5 * time.Millisecond)
	followerDone := make(chan error, 1)
	go func() {
		_, err := eng.Localize(context.Background(), f.targets[3])
		followerDone <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancelLeader()

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	if err := <-followerDone; err != nil {
		t.Errorf("healthy follower err = %v, want success", err)
	}
}

func TestContextCancelAbortsBatch(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober, delay: 2 * time.Millisecond}
	loc := core.NewLocalizer(cp, f.survey, core.Config{})
	eng := batch.New(loc, batch.Options{Workers: 2, CacheSize: -1})

	ctx, cancel := context.WithCancel(context.Background())
	items := eng.Run(ctx, f.targets)
	<-items // let the batch get going
	cancel()

	var cancelled int
	for item := range items {
		if errors.Is(item.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("cancel produced no context.Canceled items")
	}
}

func TestTargetTimeout(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober, delay: 5 * time.Millisecond}
	loc := core.NewLocalizer(cp, f.survey, core.Config{})
	eng := batch.New(loc, batch.Options{Workers: 1, CacheSize: -1, TargetTimeout: time.Millisecond})

	_, err := eng.Localize(context.Background(), f.targets[2])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	if s := eng.Stats(); s.Errors != 1 {
		t.Errorf("errors = %d, want 1", s.Errors)
	}
}

func TestLRUEviction(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober}
	loc := core.NewLocalizer(cp, f.survey, core.Config{})
	eng := batch.New(loc, batch.Options{Workers: 1, CacheSize: 2})
	ctx := context.Background()

	for _, tgt := range []string{f.targets[0], f.targets[1], f.targets[2]} {
		if _, err := eng.Localize(ctx, tgt); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.Stats().CacheLen; n != 2 {
		t.Errorf("cache length %d, want 2 after eviction", n)
	}
	before := cp.pings.Load()
	// targets[0] was evicted (LRU), so this must re-probe.
	if _, err := eng.Localize(ctx, f.targets[0]); err != nil {
		t.Fatal(err)
	}
	if cp.pings.Load() == before {
		t.Error("evicted entry served without probing")
	}
	// targets[2] is fresh and must not re-probe.
	before = cp.pings.Load()
	if _, err := eng.Localize(ctx, f.targets[2]); err != nil {
		t.Fatal(err)
	}
	if cp.pings.Load() != before {
		t.Error("fresh entry re-probed")
	}
}

// swapProvider is a mutable Provider standing in for the lifecycle
// manager: tests flip the published localizer to simulate epoch swaps.
type swapProvider struct {
	mu  sync.Mutex
	loc *core.Localizer
}

func (p *swapProvider) CurrentLocalizer() *core.Localizer {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loc
}

func (p *swapProvider) publish(loc *core.Localizer) {
	p.mu.Lock()
	p.loc = loc
	p.mu.Unlock()
}

// TestEpochSwapInvalidatesCache: a cached result from epoch 0 must not be
// served once the provider publishes epoch 1 — the request re-measures
// under the new snapshot and the item reports the new epoch.
func TestEpochSwapInvalidatesCache(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober}
	prov := &swapProvider{loc: core.NewLocalizer(cp, f.survey, core.Config{})}
	eng := batch.NewWithProvider(prov, batch.Options{Workers: 2})
	ctx := context.Background()

	item := eng.LocalizeItem(ctx, f.targets[0])
	if item.Err != nil {
		t.Fatal(item.Err)
	}
	if item.Epoch != 0 || item.Cached {
		t.Fatalf("first item = epoch %d cached %v", item.Epoch, item.Cached)
	}
	// Same epoch: served from cache, no probes.
	before := cp.pings.Load()
	item = eng.LocalizeItem(ctx, f.targets[0])
	if !item.Cached || cp.pings.Load() != before {
		t.Fatalf("same-epoch repeat not cached (cached=%v)", item.Cached)
	}

	// Publish epoch 1 over the same measurements: the stale entry must
	// invalidate even though the target did not change.
	next, err := f.survey.Refit(f.survey.RTT, 1)
	if err != nil {
		t.Fatal(err)
	}
	prov.publish(core.NewLocalizer(cp, next, core.Config{}))

	before = cp.pings.Load()
	item = eng.LocalizeItem(ctx, f.targets[0])
	if item.Err != nil {
		t.Fatal(item.Err)
	}
	if item.Cached || item.Epoch != 1 {
		t.Errorf("post-swap item = epoch %d cached %v, want fresh epoch 1", item.Epoch, item.Cached)
	}
	if cp.pings.Load() == before {
		t.Error("post-swap request served without re-measuring")
	}
	if s := eng.Stats(); s.Epoch != 1 {
		t.Errorf("stats epoch = %d, want 1", s.Epoch)
	}

	// And the new epoch's result is now cached in the old entry's place.
	item = eng.LocalizeItem(ctx, f.targets[0])
	if !item.Cached || item.Epoch != 1 {
		t.Errorf("new-epoch repeat = epoch %d cached %v", item.Epoch, item.Cached)
	}
}

// TestStragglerDoesNotClobberFreshCache: a request that borrowed the
// superseded epoch must neither evict nor overwrite a current-epoch
// cache entry when it finally completes.
func TestStragglerDoesNotClobberFreshCache(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober}
	locOld := core.NewLocalizer(cp, f.survey, core.Config{})
	next, err := f.survey.Refit(f.survey.RTT, 1)
	if err != nil {
		t.Fatal(err)
	}
	locNew := core.NewLocalizer(cp, next, core.Config{})
	prov := &swapProvider{loc: locOld}
	eng := batch.NewWithProvider(prov, batch.Options{Workers: 2})
	ctx := context.Background()
	tgt := f.targets[4]

	// Epoch 1 result lands in the cache first…
	prov.publish(locNew)
	if item := eng.LocalizeItem(ctx, tgt); item.Err != nil || item.Epoch != 1 {
		t.Fatalf("fresh item: %+v", item)
	}
	// …then a straggler still holding epoch 0 measures the same target.
	prov.publish(locOld)
	straggler := eng.LocalizeItem(ctx, tgt)
	if straggler.Err != nil || straggler.Epoch != 0 || straggler.Cached {
		t.Fatalf("straggler item: epoch %d cached %v err %v", straggler.Epoch, straggler.Cached, straggler.Err)
	}
	// The epoch-1 entry must have survived both the straggler's lookup
	// and its completion: a current-epoch request is still a cache hit.
	prov.publish(locNew)
	before := cp.pings.Load()
	item := eng.LocalizeItem(ctx, tgt)
	if item.Err != nil {
		t.Fatal(item.Err)
	}
	if !item.Cached || item.Epoch != 1 || cp.pings.Load() != before {
		t.Errorf("fresh entry clobbered by straggler: cached=%v epoch=%d probes+%d",
			item.Cached, item.Epoch, cp.pings.Load()-before)
	}
}

// TestFusedRunCachesAndCoalesces exercises the fused Run path's sharing
// behaviour end to end: duplicates inside one batch measure once and
// count as coalesced, measured results land in the LRU, a repeat batch is
// served entirely from cache (still counted as a fused group), and the
// fused counters report exactly the submitted traffic.
func TestFusedRunCachesAndCoalesces(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober}
	loc := core.NewLocalizer(cp, f.survey, core.Config{})
	eng := batch.New(loc, batch.Options{Workers: 4})
	ctx := context.Background()

	// 6 submissions over 4 distinct targets: 4 measurements, 2 followers.
	targets := []string{
		f.targets[10], f.targets[11], f.targets[10],
		f.targets[12], f.targets[13], f.targets[12],
	}
	results, errs := eng.Collect(ctx, targets)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", targets[i], err)
		}
	}
	if results[2] != results[0] || results[5] != results[3] {
		t.Error("within-batch duplicates should share the leader's *Result")
	}
	s := eng.Stats()
	if s.FusedGroups != 1 || s.FusedTargets != uint64(len(targets)) {
		t.Errorf("fused counters = %d groups / %d targets, want 1 / %d", s.FusedGroups, s.FusedTargets, len(targets))
	}
	if s.Coalesced != 2 {
		t.Errorf("coalesced = %d, want 2 (one follower per duplicated target)", s.Coalesced)
	}
	if s.CacheLen != 4 {
		t.Errorf("cache length %d after fused batch, want 4", s.CacheLen)
	}

	// Repeat batch: all hits, no probes, still one more fused group.
	before := cp.pings.Load()
	_, errs = eng.Collect(ctx, targets)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if cp.pings.Load() != before {
		t.Error("repeat fused batch re-measured cached targets")
	}
	s = eng.Stats()
	if s.FusedGroups != 2 || s.FusedTargets != uint64(2*len(targets)) {
		t.Errorf("fused counters after repeat = %d groups / %d targets", s.FusedGroups, s.FusedTargets)
	}
	if s.CacheHits != uint64(len(targets)) {
		t.Errorf("cache hits = %d, want %d", s.CacheHits, len(targets))
	}

	// A generous per-target timeout keeps the fused path (deadlines apply
	// per target inside the group) and the batch still succeeds.
	slow := batch.New(loc, batch.Options{Workers: 2, TargetTimeout: time.Minute})
	if _, errs := slow.Collect(ctx, targets[:2]); errs[0] != nil || errs[1] != nil {
		t.Fatalf("timeout engine errs: %v", errs)
	}
	if s := slow.Stats(); s.FusedGroups != 1 {
		t.Errorf("TargetTimeout run skipped the fused path (%d groups)", s.FusedGroups)
	}
	// And an unmeetable one surfaces per-target deadline errors through
	// the fused group, matching the scalar path's error shape.
	tight := batch.New(loc, batch.Options{Workers: 2, CacheSize: -1, TargetTimeout: time.Nanosecond})
	_, terrs := tight.Collect(ctx, targets[:2])
	for i, err := range terrs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("tight-timeout err[%d] = %v, want deadline exceeded", i, err)
		}
	}
}

func TestUnknownTargetReportsError(t *testing.T) {
	f := sharedFixture(t)
	loc := core.NewLocalizer(f.prober, f.survey, core.Config{})
	eng := batch.New(loc, batch.Options{Workers: 2})
	_, errs := eng.Collect(context.Background(), []string{"no.such.host"})
	if errs[0] == nil {
		t.Error("unknown target should error")
	}
	if s := eng.Stats(); s.Errors != 1 {
		t.Errorf("errors = %d, want 1", s.Errors)
	}
}
