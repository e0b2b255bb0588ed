package batch

import (
	"sync"
	"sync/atomic"
	"time"

	"octant/internal/core"
	"octant/internal/stats"
)

// Stats is a point-in-time snapshot of engine activity, shaped for the
// octant-serve /v1/stats endpoint.
type Stats struct {
	Workers int `json:"workers"`
	// Epoch is the survey epoch the engine is currently serving from
	// (the provider's latest published snapshot).
	Epoch     uint64 `json:"epoch"`
	Requests  uint64 `json:"requests"`
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses counts requests that had to measure (or wait on a
	// coalesced measurement).
	CacheMisses uint64 `json:"cache_misses"`
	// Coalesced counts misses that piggybacked on an identical in-flight
	// request instead of probing themselves.
	Coalesced uint64 `json:"coalesced"`
	Errors    uint64 `json:"errors"`
	// Degraded counts results served from partial evidence (landmark
	// failures absorbed by quorum, core.Result.Degraded). They are
	// successes, not Errors — but a nonzero rate means the measurement
	// substrate is unhealthy, so the counter rides /v1/stats.
	Degraded uint64 `json:"degraded"`
	InFlight int64  `json:"in_flight"`
	// CacheLen and CacheCap are the LRU's occupancy and capacity;
	// CacheLen/CacheCap is how full the cache is, which the fleet router
	// and the soak harness read when judging node balance. After a survey
	// swap CacheLen still counts the superseded epoch's entries until they
	// age out.
	CacheLen int `json:"cache_len"`
	CacheCap int `json:"cache_cap"`
	// PeerHits counts cache entries served to cluster peers through Peek
	// (the /v1/cache/lookup endpoint) — results this node computed that
	// saved another node a measurement.
	PeerHits uint64 `json:"peer_hits"`
	// HintsDropped counts exogenous priors (rDNS hints, geo-DB records)
	// the RTT cross-validation rejected across computed results, and
	// HintConflicts counts computed results whose evidence classes
	// disagreed beyond the conflict threshold
	// (Provenance.Disagreement.Conflict). A rising drop rate means the
	// hint substrate (reverse zones, passive databases) is drifting from
	// the measured network.
	HintsDropped  uint64 `json:"hints_dropped"`
	HintConflicts uint64 `json:"hint_conflicts"`
	// FusedGroups counts multi-target Run calls served by the fused batch
	// solve (one group = one epoch × one options fingerprint), and
	// FusedTargets how many submitted targets rode in them; FusedTargets /
	// Requests is the fused rate — how much of the workload amortized its
	// rasterization through batches.
	FusedGroups  uint64 `json:"fused_groups"`
	FusedTargets uint64 `json:"fused_targets"`
	// HitRate is CacheHits / Requests (0 when idle).
	HitRate float64 `json:"hit_rate"`
	// CacheHitRatio is CacheHits / (CacheHits + CacheMisses) — the cache's
	// own efficiency, independent of how much traffic was coalesced or
	// errored before reaching it.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// P50Ms / P99Ms are localization latency quantiles over a sliding
	// window of recent uncached measurements.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// LandMasks reports the solver's land-mask cache, which all workers
	// share through the one Localizer: masters built (misses), reuses
	// (hits), and resident masters.
	LandMasks core.LandMaskStats `json:"land_masks"`
	// Solver reports what the raster solver's grid passes did, across the
	// same shared Localizer: passes run, passes whose level walk outran the
	// fused kernel's top-of-range table (zero on serving configurations —
	// a nonzero rate is the six-pass cost coming back), solves that traced
	// the coarse pass after all, and the deepest level walk.
	Solver core.SolverStats `json:"solver"`
}

// latWindow is how many recent measurement latencies the quantile window
// retains.
const latWindow = 2048

// metrics holds the engine's live counters: lock-free atomics for the hot
// counts, a small mutex-guarded ring for the latency window.
type metrics struct {
	requests  atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	errors    atomic.Uint64
	degraded  atomic.Uint64
	inFlight  atomic.Int64

	fusedGroups  atomic.Uint64
	fusedTargets atomic.Uint64
	peerHits     atomic.Uint64

	hintsDropped  atomic.Uint64
	hintConflicts atomic.Uint64

	mu    sync.Mutex
	ring  [latWindow]float64 // latencies, ms
	next  int
	count int
}

func (m *metrics) begin()    { m.requests.Add(1); m.inFlight.Add(1) }
func (m *metrics) end()      { m.inFlight.Add(-1) }
func (m *metrics) hit()      { m.hits.Add(1) }
func (m *metrics) miss()     { m.misses.Add(1) }
func (m *metrics) coalesce() { m.coalesced.Add(1) }
func (m *metrics) fail()     { m.errors.Add(1) }
func (m *metrics) degrade()  { m.degraded.Add(1) }
func (m *metrics) peerHit()  { m.peerHits.Add(1) }

func (m *metrics) fused(targets int) {
	m.fusedGroups.Add(1)
	m.fusedTargets.Add(uint64(targets))
}

// observePriors harvests the hint bookkeeping from one computed result:
// cross-validation drops and evidence-class conflicts ride the result's
// Provenance (attached even without Explain, same contract as degraded
// Failures). Cached and coalesced deliveries don't re-count.
func (m *metrics) observePriors(res *core.Result) {
	if res == nil || res.Provenance == nil {
		return
	}
	if n := len(res.Provenance.DroppedHints); n > 0 {
		m.hintsDropped.Add(uint64(n))
	}
	if d := res.Provenance.Disagreement; d != nil && d.Conflict {
		m.hintConflicts.Add(1)
	}
}

func (m *metrics) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	m.mu.Lock()
	m.ring[m.next] = ms
	m.next = (m.next + 1) % latWindow
	if m.count < latWindow {
		m.count++
	}
	m.mu.Unlock()
}

func (m *metrics) snapshot() Stats {
	s := Stats{
		Requests:      m.requests.Load(),
		CacheHits:     m.hits.Load(),
		CacheMisses:   m.misses.Load(),
		Coalesced:     m.coalesced.Load(),
		Errors:        m.errors.Load(),
		Degraded:      m.degraded.Load(),
		InFlight:      m.inFlight.Load(),
		FusedGroups:   m.fusedGroups.Load(),
		FusedTargets:  m.fusedTargets.Load(),
		PeerHits:      m.peerHits.Load(),
		HintsDropped:  m.hintsDropped.Load(),
		HintConflicts: m.hintConflicts.Load(),
	}
	if s.Requests > 0 {
		s.HitRate = float64(s.CacheHits) / float64(s.Requests)
	}
	if looked := s.CacheHits + s.CacheMisses; looked > 0 {
		s.CacheHitRatio = float64(s.CacheHits) / float64(looked)
	}
	m.mu.Lock()
	window := append([]float64(nil), m.ring[:m.count]...)
	m.mu.Unlock()
	if len(window) > 0 {
		s.P50Ms = stats.Percentile(window, 50)
		s.P99Ms = stats.Percentile(window, 99)
	}
	return s
}
