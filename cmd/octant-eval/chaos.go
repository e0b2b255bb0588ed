package main

import (
	"fmt"
	"io"
	"time"

	"octant/internal/cluster"
)

// runChaos is the -chaos mode: a fault-injection soak over a real
// local fleet. It kills and revives survey landmarks (simulator
// node-down) and serving nodes (listener kill) under continuous load
// and exits non-zero unless every invariant held: zero client-visible
// errors, degraded-mode results actually served while landmarks were
// down, median accuracy within 3×healthy + 300 km, and the whole fleet
// ready again at the end.
func runChaos(stdout io.Writer, seed uint64, nodes int, duration time.Duration, landmarkFrac float64) error {
	report, err := cluster.RunChaos(cluster.ChaosConfig{
		Seed:         seed,
		Nodes:        nodes,
		Duration:     duration,
		LandmarkFrac: landmarkFrac,
		Log: func(format string, args ...any) {
			fmt.Fprintf(stdout, "chaos: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "chaos: PASS — %d requests, 0 errors, %d degraded, %d landmarks downed, %d node kills\n",
		report.Requests, report.Degraded, report.LandmarksDowned, report.NodeKills)
	fmt.Fprintf(stdout, "chaos: accuracy healthy %.0f km vs faulted %.0f km (median); failovers %d, breaker opens %d, trials %d\n",
		report.HealthyMedianKm, report.ChaosMedianKm,
		report.Cluster.Router.Failovers, report.Cluster.Router.BreakerOpens, report.Cluster.Router.BreakerTrials)
	return nil
}
