package main

import (
	"context"
	"runtime"
	"syscall"
	"time"

	"octant/internal/cluster"
)

// counters is a snapshot, taken at a window edge, of every count the
// layers keep about themselves plus the process's own. Per-layer ratios
// and per-request costs are differences of two snapshots.
type counters struct {
	at time.Time

	// batch.Engine.Stats, summed over the serving nodes.
	requests, cacheHits, cacheMisses, coalesced uint64
	fusedGroups, fusedTargets                   uint64
	maskHits, maskMisses                        uint64
	// measure.Scheduler.Stats, summed over the serving nodes.
	pings, traceroutes, deduped, rttHits, rttMisses uint64
	// cluster.Router.Stats (zero without a fleet).
	router cluster.RouterStats
	// The harness's own prober wrapper and the simulator beneath it.
	probe                        probeCounts
	worldPings, worldTraceroutes uint64
	// The process.
	mallocs, pauseNs, heapInuse uint64
	cpu                         time.Duration
}

func (b *bench) snapshot() counters {
	c := counters{}
	for _, n := range b.servingNodes() {
		es := n.engine.Stats()
		c.requests += es.Requests
		c.cacheHits += es.CacheHits
		c.cacheMisses += es.CacheMisses
		c.coalesced += es.Coalesced
		c.fusedGroups += es.FusedGroups
		c.fusedTargets += es.FusedTargets
		c.maskHits += es.LandMasks.Hits
		c.maskMisses += es.LandMasks.Misses
		ms := n.manager.CurrentLocalizer().MeasureScheduler().Stats()
		c.pings += ms.Pings
		c.traceroutes += ms.Traceroutes
		c.deduped += ms.Deduped
		c.rttHits += ms.CacheHits
		c.rttMisses += ms.CacheMisses
		pc := n.prober.counts()
		c.probe.trains += pc.trains
		c.probe.failed += pc.failed
		c.probe.waitNs += pc.waitNs
		c.probe.busyNs += pc.busyNs
	}
	if b.wl.fleet {
		c.router = b.fleet.router.Stats(context.Background()).Router
	}
	c.worldPings = b.sub.world.PingCalls()
	c.worldTraceroutes = b.sub.world.TracerouteCalls()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.pauseNs, c.heapInuse = ms.Mallocs, ms.PauseTotalNs, ms.HeapInuse
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.at = time.Now()
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerDeltas fills the per-layer metrics that are differences of the
// layers' own counters between the first and the last window edge.
func layerDeltas(m *metricSet, first, last counters, lanes int) {
	d := func(a, b uint64) float64 { return float64(b - a) }
	reqs := d(first.requests, last.requests)

	l1Hits := d(first.router.L1Hits, last.router.L1Hits)
	l1Misses := d(first.router.L1Misses, last.router.L1Misses)
	m.set("cluster.l1_hit_ratio", ratio(l1Hits, l1Hits+l1Misses))
	m.set("cluster.peer_fetch_ratio", ratio(d(first.router.PeerFetches, last.router.PeerFetches), l1Misses))
	m.set("cluster.failovers", d(first.router.Failovers, last.router.Failovers))

	hits, misses := d(first.cacheHits, last.cacheHits), d(first.cacheMisses, last.cacheMisses)
	m.set("batch.lru_hit_ratio", ratio(hits, hits+misses))
	m.set("batch.coalesced", d(first.coalesced, last.coalesced))
	m.set("batch.fused_targets_per_group", ratio(d(first.fusedTargets, last.fusedTargets), d(first.fusedGroups, last.fusedGroups)))

	mh, mm := d(first.maskHits, last.maskHits), d(first.maskMisses, last.maskMisses)
	m.set("core.landmask_hit_ratio", ratio(mh, mh+mm))

	m.set("measure.pings_per_req", ratio(d(first.pings, last.pings), reqs))
	m.set("measure.traceroutes_per_req", ratio(d(first.traceroutes, last.traceroutes), reqs))
	m.set("measure.deduped", d(first.deduped, last.deduped))
	rh, rm := d(first.rttHits, last.rttHits), d(first.rttMisses, last.rttMisses)
	m.set("measure.rtt_cache_hit_ratio", ratio(rh, rh+rm))

	m.set("probe.trains_per_req", ratio(d(first.probe.trains, last.probe.trains), reqs))
	m.set("probe.lane_wait_ms_per_req", ratio(float64(last.probe.waitNs-first.probe.waitNs)/1e6, reqs))
	wall := float64(last.at.Sub(first.at))
	m.set("probe.lane_busy_frac", ratio(float64(last.probe.busyNs-first.probe.busyNs), wall*float64(lanes)))
	m.set("probe.failed", d(first.probe.failed, last.probe.failed))

	m.set("netsim.ping_calls_per_req", ratio(d(first.worldPings, last.worldPings), reqs))
	m.set("netsim.traceroute_calls_per_req", ratio(d(first.worldTraceroutes, last.worldTraceroutes), reqs))
}
