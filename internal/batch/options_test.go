package batch_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/geo"
)

// TestOptionFingerprintedCacheKeys is the cache-key contract for the v2
// options plumbing: the same target under different options must miss
// (and re-measure), while an identical options tuple must hit without
// probing.
func TestOptionFingerprintedCacheKeys(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober}
	loc := core.NewLocalizer(cp, f.survey, core.Config{})
	eng := batch.New(loc, batch.Options{Workers: 2})
	ctx := context.Background()
	tgt := f.targets[5]

	base, err := eng.Localize(ctx, tgt)
	if err != nil {
		t.Fatal(err)
	}
	probed := cp.pings.Load()

	// Different options: must not serve the default-options entry.
	tuned, err := eng.Localize(ctx, tgt, core.WithoutSource(core.SourceRouter))
	if err != nil {
		t.Fatal(err)
	}
	if cp.pings.Load() == probed {
		t.Error("tuned request served from the default-options cache entry")
	}
	if len(tuned.Constraints) >= len(base.Constraints) {
		t.Errorf("router-disabled request has %d constraints, default %d — options not applied",
			len(tuned.Constraints), len(base.Constraints))
	}

	// Same options again: hit, no probes, same pointer.
	probed = cp.pings.Load()
	again, err := eng.Localize(ctx, tgt, core.WithoutSource(core.SourceRouter))
	if err != nil {
		t.Fatal(err)
	}
	if cp.pings.Load() != probed {
		t.Error("identical-options repeat re-measured")
	}
	if again != tuned {
		t.Error("identical-options repeat should share the cached *Result")
	}

	// And the default entry is still alive alongside it.
	probed = cp.pings.Load()
	if res, err := eng.Localize(ctx, tgt); err != nil || res != base {
		t.Errorf("default entry lost after tuned request (err %v, shared %v)", err, res == base)
	}
	if cp.pings.Load() != probed {
		t.Error("default-options repeat re-measured")
	}
}

// TestOptionCoalescing: concurrent identical-options requests coalesce
// onto one measurement; a concurrently running different-options request
// for the same target does not join that flight.
func TestOptionCoalescing(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober, delay: time.Millisecond}
	loc := core.NewLocalizer(cp, f.survey, core.Config{})
	eng := batch.New(loc, batch.Options{Workers: 8, CacheSize: -1})
	ctx := context.Background()
	tgt := f.targets[6]

	const n = 6
	var wg sync.WaitGroup
	tunedResults := make([]*core.Result, n)
	var defResult *core.Result
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Localize(ctx, tgt, core.WithMinAreaKm2(40000))
			if err != nil {
				t.Error(err)
				return
			}
			tunedResults[i] = res
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := eng.Localize(ctx, tgt)
		if err != nil {
			t.Error(err)
			return
		}
		defResult = res
	}()
	wg.Wait()

	if s := eng.Stats(); s.Coalesced == 0 {
		t.Errorf("no coalescing across %d identical-options requests (stats %+v)", n, s)
	}
	for i := 1; i < n; i++ {
		if tunedResults[i] != nil && tunedResults[0] != nil && tunedResults[i].Point != tunedResults[0].Point {
			t.Errorf("tuned request %d diverged from request 0", i)
		}
	}
	if defResult != nil && tunedResults[0] != nil && defResult.AreaKm2 == tunedResults[0].AreaKm2 {
		t.Error("default-options request appears to have joined the tuned flight (same area)")
	}
}

// TestUncacheableOptionsBypassSharing: requests with custom evidence
// sources can't be fingerprinted and must bypass both the cache and the
// flight group.
type betaSource struct{ loc geo.Point }

func (betaSource) Name() string { return "beta" }
func (b betaSource) Constraints(_ context.Context, req *Request) ([]core.Constraint, core.SourceReport, error) {
	c := core.PositiveDisk(req.PCtx.Proj, b.loc, 200, 0.5, "beta")
	return []core.Constraint{c}, core.SourceReport{Source: "beta"}, nil
}

// Request aliases core.Request so the source above reads naturally.
type Request = core.Request

func TestUncacheableOptionsBypassSharing(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober}
	loc := core.NewLocalizer(cp, f.survey, core.Config{})
	eng := batch.New(loc, batch.Options{Workers: 2})
	ctx := context.Background()
	tgt := f.targets[7]
	src := betaSource{loc: geo.Pt(40, -75)}

	if _, err := eng.Localize(ctx, tgt, core.WithEvidenceSource(src)); err != nil {
		t.Fatal(err)
	}
	probed := cp.pings.Load()
	if _, err := eng.Localize(ctx, tgt, core.WithEvidenceSource(src)); err != nil {
		t.Fatal(err)
	}
	if cp.pings.Load() == probed {
		t.Error("custom-source request served from cache; must re-measure every time")
	}
}

// TestUncacheableSkipsCacheBothDirections pins the non-cacheable LRU
// contract in both directions and on both engine paths: custom-source
// requests must never READ a cache entry (every occurrence re-measures,
// even duplicates inside one fused batch) and must never INSERT one (the
// LRU stays empty, so they can't poison later cacheable traffic). The
// deterministic simulator makes the probe arithmetic exact: localizing
// one target always issues the same number of pings, so N occurrences
// must cost exactly N units.
func TestUncacheableSkipsCacheBothDirections(t *testing.T) {
	f := sharedFixture(t)
	cp := &countingProber{Prober: f.prober}
	loc := core.NewLocalizer(cp, f.survey, core.Config{})
	eng := batch.New(loc, batch.Options{Workers: 4})
	ctx := context.Background()
	tgt := f.targets[8]
	src := betaSource{loc: geo.Pt(40, -75)}

	// Calibrate the per-localization probe cost with one scalar call.
	if _, err := eng.Localize(ctx, tgt, core.WithEvidenceSource(src)); err != nil {
		t.Fatal(err)
	}
	unit := cp.pings.Load()
	if unit == 0 {
		t.Fatal("calibration call issued no probes")
	}
	if n := eng.Stats().CacheLen; n != 0 {
		t.Fatalf("scalar custom-source request inserted a cache entry (len %d)", n)
	}

	// Fused path: a multi-target Run with duplicates. No read (the scalar
	// call's result must not be served), no within-batch coalescing, no
	// insertion afterwards — three occurrences, exactly three measurements.
	before := cp.pings.Load()
	_, errs := eng.Collect(ctx, []string{tgt, tgt, tgt}, core.WithEvidenceSource(src))
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := cp.pings.Load() - before; got != 3*unit {
		t.Errorf("3 custom-source occurrences issued %d probes, want exactly %d (3 × %d)", got, 3*unit, unit)
	}
	s := eng.Stats()
	if s.CacheLen != 0 {
		t.Errorf("custom-source batch inserted %d cache entries", s.CacheLen)
	}
	if s.CacheHits != 0 || s.Coalesced != 0 {
		t.Errorf("custom-source traffic shared results: %d hits, %d coalesced", s.CacheHits, s.Coalesced)
	}

	// The skip is scoped to non-cacheable options: default traffic on the
	// same engine still caches normally.
	if _, err := eng.Localize(ctx, tgt); err != nil {
		t.Fatal(err)
	}
	before = cp.pings.Load()
	if _, err := eng.Localize(ctx, tgt); err != nil {
		t.Fatal(err)
	}
	if cp.pings.Load() != before {
		t.Error("cacheable repeat re-measured — default caching broken alongside the skip")
	}
	if n := eng.Stats().CacheLen; n != 1 {
		t.Errorf("cache length %d after one cacheable target, want 1", n)
	}
}

// TestMixedOptionsAcrossSwap drives concurrent mixed-option requests for
// overlapping targets across a survey hot swap, asserting zero errors
// and that every result matches a sequential localization under the
// same (epoch, options) pair. Run under -race in CI's soak step.
func TestMixedOptionsAcrossSwap(t *testing.T) {
	f := sharedFixture(t)
	locOld := core.NewLocalizer(f.prober, f.survey, core.Config{})
	next, err := f.survey.Refit(f.survey.RTT, 1)
	if err != nil {
		t.Fatal(err)
	}
	locNew := core.NewLocalizer(f.prober, next, core.Config{})
	prov := &swapProvider{loc: locOld}
	eng := batch.NewWithProvider(prov, batch.Options{Workers: 8})
	ctx := context.Background()

	optionSets := [][]core.LocalizeOption{
		nil,
		{core.WithoutSource(core.SourceRouter)},
		{core.WithMinAreaKm2(40000)},
		{core.WithExplain()},
	}
	// Sequential ground truth per (epoch, optionSet, target).
	truth := make(map[int]map[int]map[string]*core.Result)
	for ei, l := range []*core.Localizer{locOld, locNew} {
		truth[ei] = make(map[int]map[string]*core.Result)
		for oi, opts := range optionSets {
			truth[ei][oi] = make(map[string]*core.Result)
			for _, tgt := range f.targets[:8] {
				res, err := l.LocalizeContext(ctx, tgt, opts...)
				if err != nil {
					t.Fatal(err)
				}
				truth[ei][oi][tgt] = res
			}
		}
	}

	var wg sync.WaitGroup
	swapped := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(2 * time.Millisecond)
		prov.publish(locNew)
		close(swapped)
	}()
	const rounds = 6
	for r := 0; r < rounds; r++ {
		for oi := range optionSets {
			for _, tgt := range f.targets[:8] {
				wg.Add(1)
				go func(oi int, tgt string) {
					defer wg.Done()
					item := eng.LocalizeItem(ctx, tgt, optionSets[oi]...)
					if item.Err != nil {
						t.Errorf("opts %d %s: %v", oi, tgt, item.Err)
						return
					}
					want := truth[int(item.Epoch)][oi][tgt]
					if item.Result.Point != want.Point || item.Result.AreaKm2 != want.AreaKm2 {
						t.Errorf("opts %d %s epoch %d: point %v != sequential %v",
							oi, tgt, item.Epoch, item.Result.Point, want.Point)
					}
					if oi == 3 && item.Result.Provenance == nil {
						t.Errorf("%s: explain result served without provenance", tgt)
					}
					if oi == 0 && item.Result.Provenance != nil {
						t.Errorf("%s: default result served with provenance (cross-option cache leak)", tgt)
					}
				}(oi, tgt)
			}
		}
	}
	wg.Wait()
	<-swapped
	if s := eng.Stats(); s.Epoch != 1 {
		t.Errorf("final epoch %d, want 1", s.Epoch)
	}
}
