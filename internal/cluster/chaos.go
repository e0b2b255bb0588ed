package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"octant/internal/geo"
	"octant/internal/serve"
	"octant/internal/stats"
)

// ChaosConfig shapes a RunChaos soak: a real LocalFleet fronted by a
// Router, hammered by load workers while the harness injects and heals
// faults at both layers the paper's deployment would suffer — landmark
// measurement loss (netsim node-down) and serving-node crashes
// (listener kill/revive).
type ChaosConfig struct {
	// Seed derives the simulated world.
	Seed uint64
	// Nodes is the serving-fleet size (0 = default 3; min 3 so a node
	// kill always leaves a quorum of the fleet serving).
	Nodes int
	// Workers is how many concurrent load workers hammer the front door
	// (0 = default 4).
	Workers int
	// Duration is the total injected-fault load window, split evenly
	// across the landmark-fault, node-kill, and recovery phases
	// (0 = default 2s).
	Duration time.Duration
	// LandmarkFrac is the fraction of survey landmarks downed during the
	// landmark-fault phase (0 = default 0.2).
	LandmarkFrac float64
	// Log, when set, receives progress lines (the -chaos CLI wires it to
	// stdout; tests usually leave it nil).
	Log func(format string, args ...any)
}

// chaosQuorum is the min_landmarks every soak request carries; the
// landmark-fault phase leaves at least this many landmarks up.
const chaosQuorum = 3

// ChaosReport is what a chaos soak measured. RunChaos only returns it
// alongside a nil error when every invariant held: zero client-visible
// errors, degraded-mode results actually observed during landmark
// faults, bounded accuracy degradation, and a fully-recovered fleet.
type ChaosReport struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// Degraded counts results served from partial evidence while
	// landmarks were down — the quorum path doing its job.
	Degraded uint64 `json:"degraded"`
	// HealthyMedianKm / ChaosMedianKm are median localization errors
	// against the simulator's ground truth, before faults and across the
	// whole fault window.
	HealthyMedianKm float64 `json:"healthy_median_km"`
	ChaosMedianKm   float64 `json:"chaos_median_km"`
	// LandmarksDowned and NodeKills describe the injected faults.
	LandmarksDowned int `json:"landmarks_downed"`
	NodeKills       int `json:"node_kills"`
	// Cluster is the front door's final merged stats (breaker opens,
	// failovers, degraded counts all visible here).
	Cluster ClusterStats `json:"cluster"`
}

// RunChaos builds a fleet, takes a healthy accuracy baseline, then runs
// load workers against the router while killing and reviving landmarks
// and serving nodes. Caches are disabled at every tier so each request
// exercises routing and measurement for real. It returns an error if
// any client saw an error, if no degraded result was ever served (the
// quorum path went unexercised), if accuracy degraded beyond
// 3×healthy + 300 km, or if the fleet did not return to full readiness.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 3
	}
	if cfg.Nodes < 3 {
		return nil, fmt.Errorf("chaos: need ≥ 3 nodes so a kill leaves the fleet serving, got %d", cfg.Nodes)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.LandmarkFrac <= 0 {
		cfg.LandmarkFrac = 0.2
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	const holdout = 8
	fleet, err := StartLocalFleet(FleetConfig{
		Nodes:   cfg.Nodes,
		Seed:    cfg.Seed,
		Holdout: holdout,
		// Engine caches off: a cached answer would mask a landmark fault.
		CacheSize: -1,
		// Retries absorb transient loss below the quorum layer; tiny
		// backoffs because the simulated wire has nothing to wait out.
		RetryAttempts: 3,
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()

	router, err := NewRouter(fleet.Clients(), RouterConfig{
		CacheSize:        -1, // L1 off: every request must route
		ReadyTTL:         50 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  150 * time.Millisecond,
		FailoverBackoff:  2 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}

	truth := make(map[string]geo.Point, holdout)
	for _, h := range fleet.World.HostNodes()[:holdout] {
		truth[h.Name] = h.Loc
	}
	wo := &serve.WireOptions{MinLandmarks: chaosQuorum}
	ctx := context.Background()

	// Healthy baseline: every holdout target once, no faults anywhere.
	var healthyKm []float64
	for _, tgt := range fleet.Targets {
		tr, err := router.Localize(ctx, tgt, wo)
		if err != nil {
			return nil, fmt.Errorf("chaos: healthy baseline %s: %w", tgt, err)
		}
		if tr.Degraded || tr.Lat == nil {
			return nil, fmt.Errorf("chaos: healthy baseline %s came back degraded or empty", tgt)
		}
		healthyKm = append(healthyKm, truth[tgt].DistanceKm(geo.Pt(*tr.Lat, *tr.Lon)))
	}
	healthyMedian := stats.Median(healthyKm)
	logf("healthy baseline: median error %.0f km over %d targets", healthyMedian, len(healthyKm))

	// Load workers: continuous localizations (every 5th a 3-target
	// batch) against the front door for the whole fault window. Every
	// error a worker sees is client-visible by construction — the router
	// was supposed to absorb the fault.
	var (
		requests, degraded, errCount atomic.Uint64
		firstErr                     atomic.Value // string
		mu                           sync.Mutex
		chaosKm                      []float64
	)
	record := func(tr serve.TargetResultV2) {
		requests.Add(1)
		if tr.Degraded {
			degraded.Add(1)
		}
		if tr.Lat != nil {
			km := truth[tr.Target].DistanceKm(geo.Pt(*tr.Lat, *tr.Lon))
			mu.Lock()
			chaosKm = append(chaosKm, km)
			mu.Unlock()
		}
	}
	fail := func(err error) {
		requests.Add(1)
		errCount.Add(1)
		firstErr.CompareAndSwap(nil, err.Error())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := w; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				reqCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
				if seq%5 == 4 {
					batch := []string{
						fleet.Targets[seq%len(fleet.Targets)],
						fleet.Targets[(seq+1)%len(fleet.Targets)],
						fleet.Targets[(seq+2)%len(fleet.Targets)],
					}
					results, err := router.Batch(reqCtx, batch, wo)
					if err != nil {
						fail(err)
					} else {
						for _, tr := range results {
							record(tr)
						}
					}
				} else {
					tr, err := router.Localize(reqCtx, fleet.Targets[seq%len(fleet.Targets)], wo)
					if err != nil {
						fail(err)
					} else {
						record(tr)
					}
				}
				cancel()
			}
		}(w)
	}

	phase := cfg.Duration / 3

	// Phase 1: landmark faults. Down LandmarkFrac of the survey's
	// landmark hosts in the simulator — their pings now fail outright —
	// and let quorum absorb it.
	hosts := fleet.World.HostNodes()
	landmarks := hosts[holdout:]
	nDown := int(float64(len(landmarks))*cfg.LandmarkFrac + 0.5)
	if nDown < 1 {
		nDown = 1
	}
	if maxDown := len(landmarks) - chaosQuorum; nDown > maxDown {
		nDown = maxDown
	}
	logf("phase 1: downing %d/%d landmarks for %v", nDown, len(landmarks), phase)
	for _, lm := range landmarks[:nDown] {
		fleet.World.SetNodeDown(lm.ID, true)
	}
	time.Sleep(phase)
	for _, lm := range landmarks[:nDown] {
		fleet.World.SetNodeDown(lm.ID, false)
	}

	// Phase 2: serving-node crashes. Kill and revive each node in turn
	// (one at a time, so ≥ Nodes-1 stay up); the router must fail over
	// without surfacing a single error.
	kills := 0
	nodePhase := phase / time.Duration(cfg.Nodes)
	for _, node := range fleet.Nodes {
		logf("phase 2: killing %s for %v", node.Name, nodePhase)
		node.Kill()
		kills++
		time.Sleep(nodePhase)
		if err := node.Revive(); err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("chaos: %w", err)
		}
	}

	// Phase 3: recovery. No faults; breakers should close and the fleet
	// should end fully ready.
	logf("phase 3: recovery for %v", phase)
	time.Sleep(phase)
	close(stop)
	wg.Wait()

	report := &ChaosReport{
		Requests:        requests.Load(),
		Errors:          errCount.Load(),
		Degraded:        degraded.Load(),
		HealthyMedianKm: healthyMedian,
		LandmarksDowned: nDown,
		NodeKills:       kills,
	}
	mu.Lock()
	if len(chaosKm) > 0 {
		report.ChaosMedianKm = stats.Median(chaosKm)
	}
	mu.Unlock()

	// Recovery check: every node answers ready again (the revived ones
	// through fresh listeners), within a bounded wait.
	clients := fleet.Clients()
	deadline := time.Now().Add(5 * time.Second)
	for _, c := range clients {
		for {
			rd, err := c.Ready(ctx)
			if err == nil && rd.Ready {
				break
			}
			if time.Now().After(deadline) {
				report.Cluster = router.Stats(ctx)
				return report, fmt.Errorf("chaos: node %s not ready after recovery phase", c.Name)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	report.Cluster = router.Stats(ctx)

	if report.Errors > 0 {
		return report, fmt.Errorf("chaos: %d/%d requests saw client-visible errors (first: %s)",
			report.Errors, report.Requests, firstErr.Load())
	}
	if report.Degraded == 0 {
		return report, fmt.Errorf("chaos: no degraded result was ever served — the landmark-fault phase did not exercise quorum")
	}
	if bound := 3*healthyMedian + 300; report.ChaosMedianKm > bound {
		return report, fmt.Errorf("chaos: median error %.0f km under faults exceeds bound %.0f km (healthy %.0f km)",
			report.ChaosMedianKm, bound, healthyMedian)
	}
	logf("chaos: %d requests, 0 errors, %d degraded, median %.0f km (healthy %.0f km), %d breaker opens",
		report.Requests, report.Degraded, report.ChaosMedianKm, healthyMedian, report.Cluster.Router.BreakerOpens)
	return report, nil
}
