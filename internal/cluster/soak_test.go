package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"octant/internal/serve"
)

// soakRecord is one observed wire result, keyed for bit-identity checks.
type soakKey struct {
	target string
	fp     string
	epoch  uint64
}

type soakVal struct {
	lat, lon, area float64
}

// TestClusterSoak is the rolling-swap acceptance test: a 2-node fleet
// under continuous single + batch load takes a full coordinated epoch
// rollout (drift → refresh on the source → snapshot push → drain →
// activate) and must sustain it with zero request errors, no batch
// response ever mixing epochs, and bit-identical results per
// (target, fingerprint, epoch) across every node that answered.
func TestClusterSoak(t *testing.T) {
	fleet, err := StartLocalFleet(FleetConfig{
		Nodes:   2,
		Seed:    21,
		Holdout: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	router, err := NewRouter(fleet.Clients(), RouterConfig{ReadyTTL: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(fleet.Clients())
	if err != nil {
		t.Fatal(err)
	}

	targets := fleet.Targets[:6]
	// Two option variants → two fingerprints, so the soak exercises
	// fingerprint-qualified keys through every tier, not just defaults.
	variants := []struct {
		label string
		opts  *serve.WireOptions
	}{
		{label: "", opts: nil},
		{label: "tuned", opts: &serve.WireOptions{Weights: map[string]float64{"router": 0.5}}},
	}

	var (
		mu       sync.Mutex
		seen     = make(map[soakKey]soakVal)
		soakErrs []string
	)
	record := func(target, fpLabel string, epoch uint64, lat, lon, area float64) {
		mu.Lock()
		defer mu.Unlock()
		k := soakKey{target: target, fp: fpLabel, epoch: epoch}
		v := soakVal{lat: lat, lon: lon, area: area}
		if prev, ok := seen[k]; ok {
			if prev != v {
				soakErrs = append(soakErrs, fmt.Sprintf(
					"bit-identity violation for %+v: %+v vs %+v", k, v, prev))
			}
			return
		}
		seen[k] = v
	}
	fail := func(format string, args ...any) {
		mu.Lock()
		soakErrs = append(soakErrs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				v := variants[(w+i)%len(variants)]
				if i%3 == 0 {
					// Batch leg: three targets, response must be single-epoch.
					batchTargets := []string{
						targets[i%len(targets)],
						targets[(i+1)%len(targets)],
						targets[(i+2)%len(targets)],
					}
					results, err := router.Batch(ctx, batchTargets, v.opts)
					if err != nil {
						if ctx.Err() == nil {
							fail("worker %d batch: %v", w, err)
						}
						return
					}
					for _, res := range results {
						if res.Error != "" {
							fail("worker %d batch %s: %s", w, res.Target, res.Error)
							continue
						}
						if res.Epoch != results[0].Epoch {
							fail("worker %d: mixed epochs in one batch (%d vs %d)",
								w, res.Epoch, results[0].Epoch)
						}
						if res.Lat != nil {
							record(res.Target, v.label, res.Epoch, *res.Lat, *res.Lon, res.AreaKm2)
						}
					}
					continue
				}
				tgt := targets[(w+i)%len(targets)]
				res, err := router.Localize(ctx, tgt, v.opts)
				if err != nil {
					if ctx.Err() == nil {
						fail("worker %d localize %s: %v", w, tgt, err)
					}
					return
				}
				if res.Error != "" {
					fail("worker %d localize %s: %s", w, tgt, res.Error)
				} else if res.Lat != nil {
					record(tgt, v.label, res.Epoch, *res.Lat, *res.Lon, res.AreaKm2)
				}
			}
		}(w)
	}

	// Let the load warm both epoch-0 caches, then drift the world and
	// roll the fleet to epoch 1 under fire.
	time.Sleep(150 * time.Millisecond)
	survey := fleet.Nodes[0].Server.Manager().Current().Survey
	a, _ := fleet.World.HostByName(survey.Landmarks[0].Addr)
	b, _ := fleet.World.HostByName(survey.Landmarks[1].Addr)
	fleet.World.SetPairDriftMs(a.ID, b.ID, 25)

	report, err := coord.Rollout(ctx, RolloutOptions{})
	if err != nil {
		cancel()
		wg.Wait()
		t.Fatalf("rollout under load: %v", err)
	}
	if !report.Refreshed || report.Epoch != 1 {
		t.Errorf("rollout report = %+v, want refreshed to epoch 1", report)
	}

	// Keep serving on the new epoch before winding down.
	time.Sleep(200 * time.Millisecond)
	cancel()
	wg.Wait()

	if len(soakErrs) > 0 {
		for i, e := range soakErrs {
			if i == 10 {
				t.Errorf("… and %d more", len(soakErrs)-10)
				break
			}
			t.Error(e)
		}
	}

	// Every node converged to the pushed epoch and is ready.
	for _, client := range fleet.Clients() {
		rd, err := client.Ready(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", client.Name, err)
		}
		if !rd.Ready || rd.Epoch != 1 {
			t.Errorf("%s: ready=%v epoch=%d after rollout, want ready at 1", client.Name, rd.Ready, rd.Epoch)
		}
	}
	// The soak must actually have spanned both epochs to prove anything.
	mu.Lock()
	defer mu.Unlock()
	epochs := make(map[uint64]bool)
	for k := range seen {
		epochs[k.epoch] = true
	}
	if !epochs[0] || !epochs[1] {
		t.Errorf("soak observed epochs %v, want both 0 and 1", epochs)
	}
}
