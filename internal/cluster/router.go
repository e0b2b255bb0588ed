package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/lru"
	"octant/internal/serve"
)

// Key identifies one localization result cluster-wide: the engine's own
// batch.Key (target, options fingerprint, survey epoch), so the front
// door's L1 and a node's LRU name the same result the same way.
type Key = batch.Key

// RouterConfig tunes a Router. The zero value is usable.
type RouterConfig struct {
	// VNodes is how many virtual nodes each member projects onto the
	// ring (0 = default 128). More vnodes smooth the key distribution at
	// the cost of a larger table.
	VNodes int
	// LoadFactor is the ring's bounded-load ceiling c: no node is
	// assigned more than ⌈c · load/n⌉ concurrently routed keys
	// (0 = default 1.25, negative = unbounded). Bounding keeps one hot
	// shard from pinning a node while the rest of the fleet idles.
	LoadFactor float64
	// CacheSize is the front door's L1 result-cache capacity
	// (0 = default 4096, negative disables).
	CacheSize int
	// MaxBatch bounds targets per batch request (0 = default 1024).
	MaxBatch int
	// ReadyTTL is how long a node's readiness verdict is trusted before
	// the router re-probes /v1/readyz (0 = default 500ms). Shorter means
	// a draining node sheds traffic, and a pushed epoch is observed,
	// sooner; longer means fewer probe round-trips per request.
	ReadyTTL time.Duration
	// BreakerThreshold is how many consecutive dispatch failures open a
	// node's circuit breaker (≤ 0 = default 3).
	// An open breaker sheds the node's traffic without probing it; after
	// BreakerCooldown one half-open trial re-probes readiness fresh.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects its node before
	// admitting the half-open trial (0 = default 1s).
	BreakerCooldown time.Duration
	// FailoverBackoff is the pause before re-dispatching after a node
	// failure, doubling per consecutive failure up to 8× the base
	// (0 = default 25ms, negative disables). It keeps a failover storm
	// from hammering the surviving nodes in a tight loop.
	FailoverBackoff time.Duration
}

// RouterStats counts the front door's own activity, alongside the
// per-node engine stats in ClusterStats.
type RouterStats struct {
	// L1Hits / L1Misses are front-door result-cache outcomes.
	L1Hits   uint64 `json:"l1_hits"`
	L1Misses uint64 `json:"l1_misses"`
	// L1Len / L1Cap are the front-door cache's occupancy and capacity.
	L1Len int `json:"l1_len"`
	L1Cap int `json:"l1_cap"`
	// PeerFetches is always 0: the router no longer looks a displaced
	// target up in its owner's cache (a hung owner wedged the lookup).
	// Kept because the benchmark harness reads it.
	PeerFetches uint64 `json:"peer_fetches"`
	// Dispatched counts localizations actually sent to a node.
	Dispatched uint64 `json:"dispatched"`
	// Failovers counts dispatches retried on another node after a node
	// error.
	Failovers uint64 `json:"failovers"`
	// EpochRepairs counts batch results recomputed because they answered
	// at an older epoch than the rest of their batch (the mixed-epoch
	// guard during rolling swaps).
	EpochRepairs uint64 `json:"epoch_repairs"`
	// BreakerOpens counts circuit-breaker open transitions (including a
	// failed half-open trial re-opening), and BreakerTrials the half-open
	// trial probes admitted after a cooldown.
	BreakerOpens  uint64 `json:"breaker_opens"`
	BreakerTrials uint64 `json:"breaker_trials"`
	// Degraded counts results served from partial evidence (quorum held
	// but some landmarks failed). Degraded results are served to the
	// caller but never cached — see core.Result.Degraded.
	Degraded uint64 `json:"degraded"`
	// Breakers is each node's current breaker state
	// (closed / open / half-open).
	Breakers map[string]string `json:"breakers,omitempty"`
}

// ClusterStats is the front door's merged view: its own counters plus
// every reachable node's engine stats.
type ClusterStats struct {
	// Epoch is the newest survey epoch the router has observed.
	Epoch  uint64                 `json:"epoch"`
	Router RouterStats            `json:"router"`
	Nodes  map[string]batch.Stats `json:"nodes"`
	// Unreachable lists nodes whose stats fetch failed.
	Unreachable []string `json:"unreachable,omitempty"`
}

// Router is the cluster front door's brain: it owns the ring, routes
// every (target, fingerprint) key to its owner node, consults the
// cluster result cache before dispatching, and keeps batch responses
// epoch-coherent during rolling swaps. It is safe for concurrent use.
type Router struct {
	ring *Ring
	// members holds one record per fleet node; the map is immutable after
	// NewRouter and each member locks itself.
	members map[string]*member
	// cache is the front door's L1: wire-form results, so a hit is served
	// without touching any node. Epoch is part of the key, so entries of a
	// superseded epoch age out by disuse instead of needing invalidation.
	cache *lru.Cache[Key, serve.TargetResultV2]
	cfg   RouterConfig
	// probeTimeout bounds every call the router makes to a member on its
	// own behalf — readiness probes and stats fetches: ReadyTTL, but at
	// least 250ms. A short TTL means "re-check often", not "give up fast",
	// and a loopback round-trip can exceed a millisecond-scale TTL under
	// instrumentation.
	probeTimeout time.Duration

	// epoch is the newest epoch observed in any node response; cache
	// lookups key on it, so the front door converges to a new epoch as
	// soon as the first post-swap response arrives.
	epoch atomic.Uint64

	dispatched, failovers, epochRepairs, degradedServed atomic.Uint64
}

// NewRouter builds a router over the given fleet members.
func NewRouter(nodes []*NodeClient, cfg RouterConfig) (*Router, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 4096
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	if cfg.ReadyTTL <= 0 {
		cfg.ReadyTTL = 500 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.FailoverBackoff == 0 {
		cfg.FailoverBackoff = 25 * time.Millisecond
	}
	r := &Router{
		members:      make(map[string]*member, len(nodes)),
		cache:        lru.New[Key, serve.TargetResultV2](cfg.CacheSize, 0),
		cfg:          cfg,
		probeTimeout: max(cfg.ReadyTTL, 250*time.Millisecond),
	}
	names := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if _, dup := r.members[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		r.members[n.Name] = &member{node: n, r: r, state: breakerClosed}
		names = append(names, n.Name)
	}
	r.ring = NewRing(names, cfg.VNodes, cfg.LoadFactor)
	return r, nil
}

// Ring exposes the router's ring (the /v1/cluster view reads it).
func (r *Router) Ring() *Ring { return r.ring }

// Epoch returns the newest epoch the router has observed.
func (r *Router) Epoch() uint64 { return r.epoch.Load() }

// observeEpoch advances the router's epoch watermark.
func (r *Router) observeEpoch(e uint64) {
	for {
		cur := r.epoch.Load()
		if e <= cur || r.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// failoverSleep pauses before the next dispatch after a node failure:
// FailoverBackoff doubled per consecutive failure, capped at 8× the
// base. It returns the context's error if cancelled mid-sleep.
func (r *Router) failoverSleep(ctx context.Context, failures int) error {
	d := r.cfg.FailoverBackoff
	if d <= 0 || failures <= 0 {
		return nil
	}
	for i := 1; i < failures && d < 8*r.cfg.FailoverBackoff; i++ {
		d *= 2
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// routeKey is the composite the ring hashes: target plus options
// fingerprint, so differently-tuned requests for one target can land on
// different owners but identical requests always converge.
func routeKey(target, fp string) string {
	if fp == "" {
		return target
	}
	return target + "\x1f" + fp
}

// RouteError is a front-door failure with the HTTP status the cluster
// handler should answer with.
type RouteError struct {
	Status  int
	Message string
}

func (e *RouteError) Error() string { return e.Message }

func routeErrorf(status int, format string, args ...any) *RouteError {
	return &RouteError{Status: status, Message: fmt.Sprintf(format, args...)}
}

// resolveWire validates wire options and derives the fingerprint the
// cluster tiers key on: "" for a default request, as the batch engine's
// resolveOpts does. Wire options carry nothing that cannot be
// fingerprinted, so every wire request is cacheable.
func resolveWire(wo *serve.WireOptions) (fp string, err error) {
	opts, err := wo.Options()
	if err != nil || len(opts) == 0 {
		return "", err
	}
	o := core.NewLocalizeOptions(opts...)
	return o.Fingerprint(), nil
}

// Localize routes one localization through the cluster. A single target
// is a batch of one — the same validation, cache tiers, placement and
// failover as Batch — with the lone line unwrapped: a target the node
// could not localize is the 422 the node's own single endpoint answers.
// Errors are *RouteError with the status to serve.
func (r *Router) Localize(ctx context.Context, target string, wo *serve.WireOptions) (serve.TargetResultV2, error) {
	if target == "" {
		return serve.TargetResultV2{}, routeErrorf(http.StatusBadRequest, "missing target")
	}
	results, err := r.Batch(ctx, []string{target}, wo)
	if err != nil {
		return serve.TargetResultV2{}, err
	}
	if results[0].Error != "" {
		return serve.TargetResultV2{}, routeErrorf(http.StatusUnprocessableEntity, "%s", results[0].Error)
	}
	return results[0], nil
}

// Batch scatter-gathers targets across the fleet: targets are served
// from the front-door cache (L1) where possible, the rest are
// placed, grouped by node and dispatched as per-node sub-requests, and
// the merged response is epoch-repaired so one batch never mixes survey
// epochs — the per-node engines guarantee that within a node, and the
// repair pass extends it across nodes mid-rollout. Results come back in
// submission order; a target that could not be localized is a line with
// Error set, never a failed batch. Errors are *RouteError with the status
// to serve.
func (r *Router) Batch(ctx context.Context, targets []string, wo *serve.WireOptions) ([]serve.TargetResultV2, error) {
	// Options first, then the target list: the order a node checks them.
	fp, err := resolveWire(wo)
	if err != nil {
		return nil, routeErrorf(http.StatusBadRequest, "bad options: %v", err)
	}
	if status, err := serve.CheckTargets(targets, r.cfg.MaxBatch); err != nil {
		return nil, routeErrorf(status, "%v", err)
	}
	c := &call{targets: targets, wo: wo, fp: fp, results: make([]serve.TargetResultV2, len(targets))}
	// Keep the epoch watermark no staler than ReadyTTL: a readiness probe
	// (TTL-cached, so at most one round-trip per node per TTL) carries the
	// node's current epoch, so even a 100%-cache-hit workload observes a
	// rolling swap within one TTL instead of serving the old epoch forever.
	firstOwner, _ := r.ring.Owner(routeKey(targets[0], fp))
	r.members[firstOwner].isReady(ctx)
	epoch := r.epoch.Load()
	var pending []int
	for i, tgt := range targets {
		if res, ok := r.cache.Get(Key{Target: tgt, Fingerprint: fp, Epoch: epoch}); ok {
			c.results[i] = res
			continue
		}
		pending = append(pending, i)
	}
	if err := r.scatter(ctx, c, pending); err != nil {
		return nil, err
	}

	// Epoch repair: if a rolling swap landed mid-batch, some lines carry
	// the old epoch (computed or cached). Recompute them, with the fleet's
	// newest epoch observed, until the whole response is single-epoch. An
	// error line carries no answer that could differ between epochs, so it
	// is neither repaired nor held against the batch.
	for round := 0; ; round++ {
		maxE := uint64(0)
		for _, res := range c.results {
			if res.Epoch > maxE {
				maxE = res.Epoch
			}
		}
		var stale []int
		for i, res := range c.results {
			if res.Error == "" && res.Epoch < maxE {
				stale = append(stale, i)
			}
		}
		if len(stale) == 0 {
			break
		}
		if round == 4 {
			return nil, routeErrorf(http.StatusBadGateway,
				"fleet would not converge on one epoch (%d vs %d)", c.results[stale[0]].Epoch, maxE)
		}
		r.epochRepairs.Add(uint64(len(stale)))
		r.observeEpoch(maxE)
		for _, i := range stale {
			c.results[i] = serve.TargetResultV2{}
		}
		if err := r.scatter(ctx, c, stale); err != nil {
			return nil, err
		}
	}
	for _, res := range c.results {
		switch {
		case res.Error != "":
			// The target failed, perhaps transiently: nothing to cache.
		case res.Degraded:
			// Served from partial evidence: delivered, never cached — the
			// faults it reflects are transient.
			r.degradedServed.Add(1)
		default:
			r.cache.Put(Key{Target: res.Target, Fingerprint: fp, Epoch: res.Epoch}, res)
		}
	}
	return c.results, nil
}

// call is one Batch in flight: what was asked, and what has been answered
// so far. results[i].Target stays "" until targets[i] has its line.
type call struct {
	targets []string
	wo      *serve.WireOptions
	fp      string
	results []serve.TargetResultV2
}

// place picks the node for key — the package's one placement rule. It
// walks the key's preference order and takes the first eligible member
// with room under the bounded-load ceiling; when every eligible member is
// at the ceiling (tiny fleets, bursty load), the owner-most eligible one;
// "" when nothing is eligible. It runs outside any lock: eligible may
// probe a node over HTTP, and a hung node must stall only the request
// that asked about it.
func place(ring *Ring, key string, eligible func(node string) bool) string {
	fallback := ""
	for _, cand := range ring.Preference(key, ring.Len()) {
		if !eligible(cand) {
			continue
		}
		if ring.HasRoom(cand) {
			return cand
		}
		if fallback == "" {
			fallback = cand
		}
	}
	return fallback
}

// scatter answers the pending targets of c — the router's one dispatch
// loop, for one target or a thousand. Each round places every unanswered
// target, sends one sub-request per chosen node, and on node failure
// excludes the node, backs off and regroups what it left unanswered. It
// fails only when no node is left to try or a node rejects the request
// itself.
func (r *Router) scatter(ctx context.Context, c *call, pending []int) error {
	excluded := make(map[string]bool)
	admitted := func(node string) bool { return !excluded[node] && r.members[node].admit(ctx) }
	// Readiness can be transiently all-false (one node draining for
	// shutdown while another's probe times out); rather than failing the request,
	// fall back to any node not yet tried whose breaker admits it. An open
	// breaker keeps its node out even here; a half-open trial admitted here
	// is settled by its dispatch's outcome instead of a probe.
	allowed := func(node string) bool {
		if excluded[node] {
			return false
		}
		ok, _ := r.members[node].allow(time.Now())
		return ok
	}
	var lastErr error
	for {
		groups := make(map[string][]int)
		for _, i := range pending {
			if c.results[i].Target != "" {
				continue
			}
			key := routeKey(c.targets[i], c.fp)
			node := place(r.ring, key, admitted)
			if node == "" {
				node = place(r.ring, key, allowed)
			}
			if node == "" {
				if lastErr != nil {
					return routeErrorf(http.StatusBadGateway, "all nodes failed: %v", lastErr)
				}
				return routeErrorf(http.StatusServiceUnavailable, "no ready node")
			}
			groups[node] = append(groups[node], i)
		}
		if len(groups) == 0 {
			return nil
		}

		nodes := make([]string, 0, len(groups))
		for node := range groups {
			nodes = append(nodes, node)
		}
		// The last group runs on this goroutine: a one-target request
		// spawns nothing.
		errs := make([]error, len(nodes))
		var wg sync.WaitGroup
		last := len(nodes) - 1
		for g, node := range nodes[:last] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[g] = r.dispatch(ctx, c, node, groups[node])
			}()
		}
		errs[last] = r.dispatch(ctx, c, nodes[last], groups[nodes[last]])
		wg.Wait()

		failed := false
		for g, err := range errs {
			if err == nil {
				continue
			}
			if re, ok := err.(*RouteError); ok {
				return re
			}
			excluded[nodes[g]] = true
			failed, lastErr = true, err
		}
		if !failed {
			return nil
		}
		// Back off before regrouping so a failover storm doesn't hammer the
		// surviving nodes in a tight loop.
		if serr := r.failoverSleep(ctx, len(excluded)); serr != nil {
			return routeErrorf(http.StatusBadGateway, "cancelled during failover backoff: %v", serr)
		}
	}
}

// dispatch answers one node's share of a call, holding ring load for
// those targets until it returns: the targets go to the node as one
// /v2/localize/batch sub-request, however many there are. It returns a
// *RouteError when the node understood the request and rejected it
// (another node would say the same); any other error is node trouble,
// already reported to the node's member record, and every target it
// leaves unanswered is the caller's to regroup.
func (r *Router) dispatch(ctx context.Context, c *call, node string, idxs []int) error {
	release := r.ring.Reserve(node, len(idxs))
	defer release()

	byTarget := make(map[string][]int, len(idxs))
	sub := make([]string, 0, len(idxs))
	for _, i := range idxs {
		t := c.targets[i]
		if len(byTarget[t]) == 0 {
			sub = append(sub, t)
		}
		byTarget[t] = append(byTarget[t], i)
	}

	r.dispatched.Add(uint64(len(sub)))
	m := r.members[node]
	err := m.node.BatchV2(ctx, sub, c.wo, func(tr serve.TargetResultV2) error {
		r.observeEpoch(tr.Epoch)
		for _, i := range byTarget[tr.Target] {
			c.results[i] = tr
		}
		return nil
	})
	if err == nil {
		for _, t := range sub {
			if c.results[byTarget[t][0]].Target == "" {
				err = fmt.Errorf("%s: response ended without a line for %s", node, t)
				break
			}
		}
	}
	var ae *apiError
	if errors.As(err, &ae) && ae.Status < http.StatusInternalServerError {
		return routeErrorf(ae.Status, "%s", ae.Message)
	}
	m.report(time.Now(), err == nil)
	if err != nil {
		r.failovers.Add(1)
	}
	return err
}

// Stats merges the router's counters with every node's engine stats. Each
// node's fetch is bounded by the probe timeout; a node that does not answer
// in time is listed as unreachable.
func (r *Router) Stats(ctx context.Context) ClusterStats {
	hits, misses := r.cache.Counters()
	cs := ClusterStats{
		Epoch: r.epoch.Load(),
		Router: RouterStats{
			L1Hits:       hits,
			L1Misses:     misses,
			L1Len:        r.cache.Len(),
			L1Cap:        r.cache.Cap(),
			Dispatched:   r.dispatched.Load(),
			Failovers:    r.failovers.Load(),
			EpochRepairs: r.epochRepairs.Load(),
			Degraded:     r.degradedServed.Load(),
			Breakers:     make(map[string]string, len(r.members)),
		},
		Nodes: make(map[string]batch.Stats, len(r.members)),
	}
	for name, m := range r.members {
		state, opens, trials := m.breaker()
		cs.Router.Breakers[name] = string(state)
		cs.Router.BreakerOpens += opens
		cs.Router.BreakerTrials += trials
		fetchCtx, cancel := context.WithTimeout(ctx, r.probeTimeout)
		st, err := m.node.Stats(fetchCtx)
		cancel()
		if err != nil {
			cs.Unreachable = append(cs.Unreachable, name)
			continue
		}
		cs.Nodes[name] = st
	}
	sort.Strings(cs.Unreachable)
	return cs
}
