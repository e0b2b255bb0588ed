package lifecycle_test

import (
	"bytes"
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/lifecycle"
	"octant/internal/netsim"
	"octant/internal/probe"
)

// fixture is one simulated deployment: a world trimmed to nSites sites,
// the first nTargets hosts held out as targets, the rest surveyed.
type fixture struct {
	world    *netsim.World
	prober   *probe.SimProber
	survey   *core.Survey
	targets  []string
	lmNodes  []int // node IDs of the landmark hosts, parallel to survey.Landmarks
	landmark []core.Landmark
}

func newFixture(t *testing.T, seed uint64, nSites, nTargets int) *fixture {
	t.Helper()
	world := netsim.NewWorld(netsim.Config{Seed: seed, Sites: netsim.DefaultSites[:nSites]})
	prober := probe.NewSimProber(world)
	hosts := world.HostNodes()
	f := &fixture{world: world, prober: prober}
	for i, h := range hosts {
		if i < nTargets {
			f.targets = append(f.targets, h.Name)
			continue
		}
		f.landmark = append(f.landmark, core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
		f.lmNodes = append(f.lmNodes, h.ID)
	}
	survey, err := core.NewSurvey(prober, f.landmark, core.SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	f.survey = survey
	return f
}

// driftPair injects ms of RTT drift between landmarks a and b (survey
// indices). Only the landmark mesh drifts; landmark→target measurements
// stay bit-identical, so results remain a pure function of the epoch.
func (f *fixture) driftPair(a, b int, ms float64) {
	f.world.SetPairDriftMs(f.lmNodes[a], f.lmNodes[b], ms)
}

// TestScopedRefreshProbeAccounting asserts the probe cost of refreshes
// against the world's measurement counters: a full refresh pays the
// whole mesh, a scoped refresh only the pairs touching its landmarks.
func TestScopedRefreshProbeAccounting(t *testing.T) {
	f := newFixture(t, 21, 16, 8)
	m := lifecycle.New(f.prober, f.survey, core.Config{}, lifecycle.Options{})
	n := f.survey.N()
	ctx := context.Background()

	before := f.world.PingCalls()
	rep, err := m.Refresh(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := n * (n - 1) / 2
	if got := int(f.world.PingCalls() - before); got != full || rep.ProbedPairs != full {
		t.Errorf("full refresh probed %d pairs (reported %d), want %d", got, rep.ProbedPairs, full)
	}

	before = f.world.PingCalls()
	rep, err = m.Refresh(ctx, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if got := int(f.world.PingCalls() - before); got != n-1 || rep.ProbedPairs != n-1 {
		t.Errorf("scoped refresh probed %d pairs (reported %d), want %d", got, rep.ProbedPairs, n-1)
	}

	before = f.world.PingCalls()
	rep, err = m.Refresh(ctx, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 2*(n-2) + 1 // pairs touching {0,1}: 0↔1 plus each to the other n−2
	if got := int(f.world.PingCalls() - before); got != want || rep.ProbedPairs != want {
		t.Errorf("2-scoped refresh probed %d pairs (reported %d), want %d", got, rep.ProbedPairs, want)
	}

	if _, err := m.Refresh(ctx, []int{n}); err == nil {
		t.Error("out-of-range scope index should error")
	}
}

// TestRefreshWithoutDriftKeepsEpoch: the sim world remeasures
// bit-identically, so a refresh over a stable mesh must not publish.
func TestRefreshWithoutDriftKeepsEpoch(t *testing.T) {
	f := newFixture(t, 22, 14, 6)
	m := lifecycle.New(f.prober, f.survey, core.Config{}, lifecycle.Options{})
	loc0 := m.CurrentLocalizer()

	rep, err := m.Refresh(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swapped || rep.Epoch != 0 || len(rep.DirtyLandmarks) != 0 {
		t.Errorf("stable refresh = %+v", rep)
	}
	if m.CurrentLocalizer() != loc0 {
		t.Error("stable refresh replaced the serving localizer")
	}
	st := m.Stats()
	if st.Refreshes != 1 || st.Swaps != 0 || st.Epoch != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRefreshIsAFreshFit drifts every pair touching landmarks 1 and 4
// and checks that the published epoch is, byte for byte, the survey
// core.NewSurvey fits over the drifted world — κ, heights and every
// calibration re-derived — whether epoch 0 was probed or warm-started
// from a snapshot.
func TestRefreshIsAFreshFit(t *testing.T) {
	for _, warm := range []bool{false, true} {
		name := map[bool]string{false: "probed", true: "warm"}[warm]
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, 23, 16, 8)
			prev := f.survey
			if warm {
				path := filepath.Join(t.TempDir(), "survey.json")
				if err := f.survey.SaveSnapshotFile(path); err != nil {
					t.Fatal(err)
				}
				var err error
				if prev, err = core.LoadSnapshotFile(path); err != nil {
					t.Fatal(err)
				}
			}
			m := lifecycle.New(f.prober, prev, core.Config{}, lifecycle.Options{})
			n := prev.N()
			const da, db = 1, 4
			for j := 0; j < n; j++ {
				if j != da {
					f.driftPair(da, j, 25)
				}
				if j != da && j != db {
					f.driftPair(db, j, 25)
				}
			}

			rep, err := m.Refresh(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Swapped || rep.Epoch != 1 || len(rep.DirtyLandmarks) != n || rep.RebuiltCalibs != n {
				t.Fatalf("drift refresh = %+v, want epoch 1 with all %d landmarks refitted", rep, n)
			}
			cur := m.Current().Survey
			if cur.Epoch != 1 || cur == prev {
				t.Fatalf("expected a new epoch-1 survey snapshot")
			}
			if cur.Kappa == prev.Kappa {
				t.Fatalf("κ stayed %v: the drift does not exercise a refit", cur.Kappa)
			}
			t.Logf("κ %.3f → %.3f", prev.Kappa, cur.Kappa)
			if cur.RTT[da][db] != prev.RTT[da][db]+25 || cur.RTT[db][da] != cur.RTT[da][db] {
				t.Errorf("drifted pair RTT %v → %v, want +25 symmetric", prev.RTT[da][db], cur.RTT[da][db])
			}

			fresh, err := core.NewSurvey(f.prober, f.landmark, core.SurveyOpts{UseHeights: true})
			if err != nil {
				t.Fatal(err)
			}
			fresh.Epoch = 1
			var got, want bytes.Buffer
			if err := cur.WriteSnapshot(&got); err != nil {
				t.Fatal(err)
			}
			if err := fresh.WriteSnapshot(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("refreshed epoch (κ %v) is not the fresh survey of the drifted world (κ %v)", cur.Kappa, fresh.Kappa)
			}
			// prev remains fully usable after the swap (RCU safety).
			if _, err := core.NewLocalizer(f.prober, prev, core.Config{}).LocalizeContext(context.Background(), f.targets[0]); err != nil {
				t.Errorf("superseded epoch unusable: %v", err)
			}
		})
	}
}

// TestHotSwapSoak is the acceptance soak: batch localization load runs
// concurrently with ≥ 3 epoch swaps, with zero dropped or errored
// requests, and every result is bit-identical to a sequential Localize
// on the epoch snapshot it was served under. Run under -race in CI.
func TestHotSwapSoak(t *testing.T) {
	f := newFixture(t, 24, 16, 8)

	var mu sync.Mutex
	epochs := map[uint64]*lifecycle.Epoch{}
	m := lifecycle.New(f.prober, f.survey, core.Config{}, lifecycle.Options{
		OnSwap: func(e *lifecycle.Epoch, _ *lifecycle.RefreshReport) {
			mu.Lock()
			epochs[e.Number()] = e
			mu.Unlock()
		},
	})
	engine := batch.NewWithProvider(m, batch.Options{Workers: 8, CacheSize: 64})

	var stop atomic.Bool
	var items []batch.Item
	var passes atomic.Int64 // completed Run sweeps across all load workers
	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for item := range engine.Run(ctx, f.targets) {
					mu.Lock()
					items = append(items, item)
					mu.Unlock()
				}
				passes.Add(1)
			}
		}()
	}
	// A third load generator drives core.LocalizeBatch directly on the
	// current epoch's snapshot — the fused group path without the engine
	// in front — so hot swaps land under both entry points. Its items
	// join the same per-epoch bit-identity audit below.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			e := m.Current()
			results, errs := e.Localizer.LocalizeBatch(ctx, f.targets[:4])
			mu.Lock()
			for i := range results {
				items = append(items, batch.Item{
					Index: i, Target: f.targets[i],
					Result: results[i], Err: errs[i],
					Epoch: e.Number(),
				})
			}
			mu.Unlock()
		}
	}()

	// waitPasses blocks until at least n full target sweeps completed, so
	// every swap lands while localization load is genuinely in flight.
	waitPasses := func(n int64) {
		for passes.Load() < n {
			time.Sleep(time.Millisecond)
		}
	}

	// Swap ≥ 3 epochs under load, each from a fresh drift, each paced so
	// at least one full sweep ran against the epoch being superseded.
	const swaps = 4
	for k := 0; k < swaps; k++ {
		waitPasses(int64(k + 1))
		f.driftPair(2*k, 2*k+1, 10+5*float64(k))
		rep, err := m.Refresh(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Swapped || rep.Epoch != uint64(k+1) {
			t.Fatalf("swap %d: %+v", k, rep)
		}
	}
	waitPasses(swaps + 1) // at least one sweep on the final epoch
	stop.Store(true)
	wg.Wait()

	if got := m.Stats().Swaps; got != swaps {
		t.Fatalf("swaps = %d, want %d", got, swaps)
	}
	if len(items) == 0 {
		t.Fatal("no load ran")
	}

	// Verify each served item bit-identically against a sequential run
	// on its epoch's snapshot. Landmark→target measurements are
	// drift-free, so per-epoch sequential replays are exact.
	type key struct {
		epoch  uint64
		target string
	}
	want := map[key]*core.Result{}
	errored := 0
	for _, item := range items {
		if item.Err != nil {
			errored++
			continue
		}
		k := key{item.Epoch, item.Target}
		ref, ok := want[k]
		if !ok {
			e := epochs[item.Epoch]
			if e == nil {
				t.Fatalf("item served under unknown epoch %d", item.Epoch)
			}
			res, err := e.Localizer.LocalizeContext(context.Background(), item.Target)
			if err != nil {
				t.Fatal(err)
			}
			ref, want[k] = res, res
		}
		if item.Result.Point != ref.Point || item.Result.AreaKm2 != ref.AreaKm2 ||
			item.Result.Weight != ref.Weight || item.Result.TargetHeightMs != ref.TargetHeightMs {
			t.Fatalf("epoch %d target %s: served %v/%v diverges from sequential %v/%v",
				item.Epoch, item.Target, item.Result.Point, item.Result.AreaKm2, ref.Point, ref.AreaKm2)
		}
	}
	if errored != 0 {
		t.Errorf("%d of %d requests errored during hot-swaps, want 0", errored, len(items))
	}
	// The engine's multi-target sweeps must all have run as fused groups.
	if s := engine.Stats(); s.FusedGroups == 0 || s.FusedTargets == 0 {
		t.Errorf("soak ran no fused groups (stats %d groups / %d targets)", s.FusedGroups, s.FusedTargets)
	}
	perEpoch := map[uint64]int{}
	for _, item := range items {
		perEpoch[item.Epoch]++
	}
	t.Logf("soak: %d items across epochs %v", len(items), perEpoch)
}

// TestWarmStartFromSnapshot proves the restart path: a snapshot-loaded
// survey enters the lifecycle without a single probe and serves
// bit-identical results.
func TestWarmStartFromSnapshot(t *testing.T) {
	f := newFixture(t, 25, 14, 6)
	path := filepath.Join(t.TempDir(), "survey.json")
	if err := f.survey.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	target := f.targets[0]
	origRes, err := core.NewLocalizer(f.prober, f.survey, core.Config{}).LocalizeContext(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := core.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before := f.world.PingCalls()
	m := lifecycle.New(f.prober, loaded, core.Config{}, lifecycle.Options{})
	if got := f.world.PingCalls(); got != before {
		t.Errorf("warm start issued %d probes, want 0", got-before)
	}
	res, err := m.CurrentLocalizer().LocalizeContext(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Point != origRes.Point || res.AreaKm2 != origRes.AreaKm2 {
		t.Errorf("warm-start result %v/%v != original %v/%v",
			res.Point, res.AreaKm2, origRes.Point, origRes.AreaKm2)
	}
}

// TestSnapshotAutosaveAcrossEpochs: every recalibrated epoch lands on
// disk, and the persisted file round-trips to the same epoch number. The
// initial epoch is deliberately not rewritten — on a warm start it was
// just read from that very file.
func TestSnapshotAutosaveAcrossEpochs(t *testing.T) {
	f := newFixture(t, 26, 14, 6)
	path := filepath.Join(t.TempDir(), "survey.json")
	m := lifecycle.New(f.prober, f.survey, core.Config{}, lifecycle.Options{SnapshotPath: path})

	if _, err := core.LoadSnapshotFile(path); err == nil {
		t.Fatal("initial epoch autosaved; seeding is the caller's decision")
	}

	f.driftPair(0, 3, 20)
	rep, err := m.Refresh(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped || rep.SnapshotError != "" {
		t.Fatalf("refresh = %+v", rep)
	}
	s1, err := core.LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Epoch != 1 {
		t.Errorf("autosaved epoch = %d, want 1", s1.Epoch)
	}
}
