package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"octant/internal/cluster"
	"octant/internal/serve"
)

// runCluster is the -cluster mode: a netsim-backed load harness for the
// sharded serving tier. It has three legs:
//
// Serialized baseline — a 1-node fleet whose localizer measures through
// a one-worker scheduler (one probe at a time), emitted as
// ClusterNodes1Serial. The run fails unless the concurrent 1-node leg clears minNodeSpeedup×
// this baseline's throughput — the per-node fan-out gate CI enforces.
//
// Scaling — start in-process fleets of 1, 2 and 4 nodes (2 engine
// workers each, probe trains paced so the worker pools are the
// bottleneck, as in a deployment), push the same set of unique
// (target, fingerprint) keys through a front-door router against each,
// and emit ClusterNodes{1,2,4} bench lines (pipe into -bench-json).
// The run fails unless the 2-node fleet clears minScale× the 1-node
// throughput — the near-linear-scaling gate CI enforces.
//
// Soak — a 2-node fleet under continuous mixed load takes a full
// coordinated epoch rollout (drift → refresh → snapshot push → rolling
// drain/activate). The run fails on any request error, any mixed-epoch
// batch response, any bit-identity violation across nodes within one
// (target, fingerprint, epoch), or a fleet that does not converge to
// the pushed epoch.
func runCluster(seed uint64, keys int, pace time.Duration, minScale, minNodeSpeedup float64) error {
	if keys < 8 {
		return fmt.Errorf("-cluster-keys must be ≥ 8 (got %d)", keys)
	}
	serialElapsed, err := clusterScalingLeg(seed, 1, keys, pace, true)
	if err != nil {
		return fmt.Errorf("serialized baseline leg: %w", err)
	}
	serialTargetsSec := float64(keys) / serialElapsed.Seconds()
	fmt.Printf("BenchmarkClusterNodes1Serial \t       1\t%d ns/op\t%.2f targets/s\n",
		serialElapsed.Nanoseconds(), serialTargetsSec)

	type leg struct {
		nodes      int
		targetsSec float64
	}
	legs := []leg{{nodes: 1}, {nodes: 2}, {nodes: 4}}
	for i := range legs {
		elapsed, err := clusterScalingLeg(seed, legs[i].nodes, keys, pace, false)
		if err != nil {
			return fmt.Errorf("%d-node leg: %w", legs[i].nodes, err)
		}
		legs[i].targetsSec = float64(keys) / elapsed.Seconds()
		fmt.Printf("BenchmarkClusterNodes%d \t       1\t%d ns/op\t%.2f targets/s\n",
			legs[i].nodes, elapsed.Nanoseconds(), legs[i].targetsSec)
	}
	nodeSpeedup := legs[0].targetsSec / serialTargetsSec
	scale2 := legs[1].targetsSec / legs[0].targetsSec
	scale4 := legs[2].targetsSec / legs[0].targetsSec
	fmt.Printf("cluster scaling: %d keys, pace %v: concurrent fan-out %.2f× the serialized node, 2-node %.2f×, 4-node %.2f× the 1-node throughput\n",
		keys, pace, nodeSpeedup, scale2, scale4)
	if nodeSpeedup < minNodeSpeedup {
		return fmt.Errorf("concurrent measurement lifted per-node throughput only %.2f× over the serialized loop (gate %.2f×)", nodeSpeedup, minNodeSpeedup)
	}
	if scale2 < minScale {
		return fmt.Errorf("2-node fleet scaled only %.2f× over 1 node (gate %.2f×)", scale2, minScale)
	}

	if err := clusterSoakLeg(seed); err != nil {
		return err
	}
	fmt.Println("cluster soak: rolling swap under load, zero errors, bit-identity OK")
	return nil
}

// clusterKeyOptions mints the i-th option variant: distinct source
// weights give distinct fingerprints, so every (target, variant) pair is
// a distinct cache/ring key and no tier can serve one request from
// another's result.
func clusterKeyOptions(i int) *serve.WireOptions {
	if i == 0 {
		return nil
	}
	return &serve.WireOptions{Weights: map[string]float64{"router": 1 + 0.001*float64(i)}}
}

// clusterScalingLeg measures one fleet size. Every leg offers the same
// load — keys distinct (target, fingerprint) localizations from a fixed
// pool of client workers, far more than any leg can absorb at once — so
// wall clock measures fleet capacity, not client parallelism. The
// router's bounded-load ring spreads the in-flight work: when a key's
// owner is saturated the dispatch spills to the next preference, which
// is what evens utilization across nodes despite skewed key ownership.
func clusterScalingLeg(seed uint64, nodes, keys int, pace time.Duration, serialized bool) (time.Duration, error) {
	cfg := cluster.FleetConfig{
		Nodes:     nodes,
		Seed:      seed,
		ProbePace: pace,
	}
	if serialized {
		// The baseline node probes one train at a time end to end: a
		// one-worker scheduler over a single pinger lane.
		cfg.SerializedMeasurement = true
		cfg.ProbeLanes = 1
	}
	fleet, err := cluster.StartLocalFleet(cfg)
	if err != nil {
		return 0, err
	}
	defer fleet.Close()
	router, err := cluster.NewRouter(fleet.Clients(), cluster.RouterConfig{})
	if err != nil {
		return 0, err
	}
	ctx := context.Background()

	// One unpaced, untimed localization per node first, so per-epoch
	// lazy state (rasterized geography, pooled grids) exists everywhere
	// before the clock starts.
	warm := &serve.WireOptions{Weights: map[string]float64{"latency": 0.999}}
	for _, client := range fleet.Clients() {
		if _, err := client.LocalizeV2(ctx, fleet.Targets[0], warm); err != nil {
			return 0, fmt.Errorf("warmup on %s: %w", client.Name, err)
		}
	}

	targets := fleet.Targets
	jobs := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	const clientWorkers = 16
	start := time.Now()
	for w := 0; w < clientWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				tgt := targets[k%len(targets)]
				res, err := router.Localize(ctx, tgt, clusterKeyOptions(k/len(targets)))
				if err == nil && res.Error != "" {
					err = fmt.Errorf("%s", res.Error)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("key %d (%s): %w", k, tgt, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for k := 0; k < keys; k++ {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return time.Since(start), firstErr
}

// clusterSoakLeg drives a 2-node fleet through a coordinated rollout
// under continuous load and verifies the cluster's serving invariants
// held throughout. It mirrors internal/cluster's TestClusterSoak so the
// same acceptance runs standalone (and in CI without the race detector's
// time dilation).
func clusterSoakLeg(seed uint64) error {
	fleet, err := cluster.StartLocalFleet(cluster.FleetConfig{
		Nodes:         2,
		Seed:          seed,
		Holdout:       40,
		ActivateDrain: 200 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer fleet.Close()
	router, err := cluster.NewRouter(fleet.Clients(), cluster.RouterConfig{ReadyTTL: 15 * time.Millisecond})
	if err != nil {
		return err
	}
	coord, err := cluster.NewCoordinator(fleet.Clients())
	if err != nil {
		return err
	}

	type soakKey struct {
		target string
		fp     int
		epoch  uint64
	}
	type soakVal struct{ lat, lon, area float64 }
	var (
		mu   sync.Mutex
		seen = make(map[soakKey]soakVal)
		errs []string
	)
	record := func(target string, fp int, epoch uint64, lat, lon, area float64) {
		mu.Lock()
		defer mu.Unlock()
		k := soakKey{target: target, fp: fp, epoch: epoch}
		v := soakVal{lat: lat, lon: lon, area: area}
		if prev, ok := seen[k]; ok {
			if prev != v {
				errs = append(errs, fmt.Sprintf("bit-identity violation for %+v: %+v vs %+v", k, v, prev))
			}
			return
		}
		seen[k] = v
	}
	fail := func(format string, args ...any) {
		mu.Lock()
		errs = append(errs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	targets := fleet.Targets[:6]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				variant := (w + i) % 2
				if i%3 == 0 {
					batch := []string{
						targets[i%len(targets)],
						targets[(i+1)%len(targets)],
						targets[(i+2)%len(targets)],
					}
					results, err := router.Batch(ctx, batch, clusterKeyOptions(variant))
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
							fail("worker %d: mixed epochs in one batch (%d vs %d)", w, res.Epoch, results[0].Epoch)
						}
						if res.Lat != nil {
							record(res.Target, variant, res.Epoch, *res.Lat, *res.Lon, res.AreaKm2)
						}
					}
					continue
				}
				tgt := targets[(w+i)%len(targets)]
				res, err := router.Localize(ctx, tgt, clusterKeyOptions(variant))
				if err != nil {
					if ctx.Err() == nil {
						fail("worker %d localize %s: %v", w, tgt, err)
					}
					return
				}
				if res.Error != "" {
					fail("worker %d localize %s: %s", w, tgt, res.Error)
				} else if res.Lat != nil {
					record(tgt, variant, res.Epoch, *res.Lat, *res.Lon, res.AreaKm2)
				}
			}
		}(w)
	}

	time.Sleep(150 * time.Millisecond)
	survey := fleet.Nodes[0].Server.Manager().Current().Survey
	a, _ := fleet.World.HostByName(survey.Landmarks[0].Addr)
	b, _ := fleet.World.HostByName(survey.Landmarks[1].Addr)
	fleet.World.SetPairDriftMs(a.ID, b.ID, 25)

	report, err := coord.Rollout(ctx, cluster.RolloutOptions{})
	if err != nil {
		cancel()
		wg.Wait()
		return fmt.Errorf("rollout under load: %w", err)
	}
	if !report.Refreshed || report.Epoch != 1 {
		return fmt.Errorf("rollout did not publish epoch 1 (refreshed=%v epoch=%d)", report.Refreshed, report.Epoch)
	}
	time.Sleep(200 * time.Millisecond)
	cancel()
	wg.Wait()

	if len(errs) > 0 {
		return fmt.Errorf("cluster soak: %d violations, first: %s", len(errs), errs[0])
	}
	for _, client := range fleet.Clients() {
		rd, err := client.Ready(context.Background())
		if err != nil {
			return fmt.Errorf("%s: %w", client.Name, err)
		}
		if !rd.Ready || rd.Epoch != 1 {
			return fmt.Errorf("%s not ready at epoch 1 after rollout (ready=%v epoch=%d)", client.Name, rd.Ready, rd.Epoch)
		}
	}
	epochs := make(map[uint64]bool)
	for k := range seen {
		epochs[k.epoch] = true
	}
	if !epochs[0] || !epochs[1] {
		return fmt.Errorf("soak observed epochs %v, want both 0 and 1", epochs)
	}
	return nil
}
