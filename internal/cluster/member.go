package cluster

import (
	"context"
	"sync"
	"time"

	"octant/internal/serve"
)

// breakerState is a member's circuit-breaker position, named as
// /v1/stats reports it.
type breakerState string

const (
	// breakerClosed: the node is trusted; dispatches flow normally.
	breakerClosed breakerState = "closed"
	// breakerOpen: BreakerThreshold dispatches in a row failed; the node's
	// traffic is shed without a probe until BreakerCooldown has passed.
	breakerOpen breakerState = "open"
	// breakerHalfOpen: the cooldown passed and one trial was admitted to
	// verify the node. A success closes the breaker, a failure re-opens it
	// with a fresh cooldown.
	breakerHalfOpen breakerState = "half-open"
)

// member is one fleet node as the router sees it — its client, its cached
// readiness verdict and its circuit breaker under one lock — and the one
// place the admission policy lives. Consecutive dispatch failures open the
// breaker, an open breaker sheds the node without a probe round-trip, and
// recovery goes through one half-open trial after the cooldown, so a
// revived node re-enters rotation on the breaker's clock rather than by
// waiting out a stale readiness verdict.
type member struct {
	node *NodeClient
	r    *Router // settings, probe timeout and epoch watermark

	mu            sync.Mutex
	ready         bool      // the last readiness verdict,
	readyAt       time.Time // reached then (zero = never)
	state         breakerState
	failures      int // consecutive dispatch failures while closed
	openedAt      time.Time
	opens, trials uint64 // breaker_opens, breaker_trials
}

// allow is the breaker's gate: whether a dispatch may be tried at now.
// trial is true for exactly the call that moves an open breaker, its
// cooldown over, to half-open; that caller verifies the node. Later
// half-open callers pass as ordinary traffic, and the first settled
// outcome decides the state.
func (m *member) allow(now time.Time) (ok, trial bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != breakerOpen {
		return true, false
	}
	if now.Sub(m.openedAt) < m.r.cfg.BreakerCooldown {
		return false, false
	}
	m.state = breakerHalfOpen
	m.trials++
	return true, true
}

// report records a dispatch outcome at now. A success closes the breaker.
// A failure marks the node not ready and opens the breaker with a fresh
// cooldown when it is the BreakerThreshold-th in a row or a half-open
// trial's.
func (m *member) report(now time.Time, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		m.state, m.failures = breakerClosed, 0
		return
	}
	m.ready, m.readyAt = false, now
	switch m.state {
	case breakerOpen:
		return // a concurrent failure raced the transition
	case breakerClosed:
		m.failures++
		if m.failures < m.r.cfg.BreakerThreshold {
			return
		}
	}
	m.state, m.openedAt = breakerOpen, now
	m.opens++
}

// admit decides whether the node may take a dispatch: the breaker gates
// first, then readiness. The one call that moves a cooled-down breaker to
// half-open verifies the node with a fresh probe, bypassing the cached
// verdict, and a failed probe re-opens the breaker at once instead of
// waiting for a dispatch to fail.
func (m *member) admit(ctx context.Context) bool {
	ok, trial := m.allow(time.Now())
	switch {
	case !ok:
		return false
	case !trial:
		return m.isReady(ctx)
	case m.probe(ctx).Ready:
		return true
	case ctx.Err() != nil:
		return false // the caller gave up, which says nothing about the node
	}
	m.report(time.Now(), false)
	return false
}

// isReady returns the cached readiness verdict, re-probing the node when
// the verdict is older than ReadyTTL.
func (m *member) isReady(ctx context.Context) bool {
	m.mu.Lock()
	ready, fresh := m.ready, time.Since(m.readyAt) < m.r.cfg.ReadyTTL
	m.mu.Unlock()
	if fresh {
		return ready
	}
	return m.probe(ctx).Ready
}

// probe asks the node's /v1/readyz now, within the router's probe timeout,
// and caches the verdict. Transport trouble is a not-ready verdict, cached
// like any other, so a dead node costs one probe per ReadyTTL rather than
// one per request. A probe cut short by the caller's own cancellation is
// not cached: it says nothing about the node.
func (m *member) probe(ctx context.Context) serve.Readiness {
	probeCtx, cancel := context.WithTimeout(ctx, m.r.probeTimeout)
	defer cancel()
	rd, err := m.node.Ready(probeCtx) // the zero Readiness on error
	if err == nil {
		m.r.observeEpoch(rd.Epoch)
	} else if ctx.Err() != nil {
		return rd
	}
	m.mu.Lock()
	m.ready, m.readyAt = rd.Ready, time.Now()
	m.mu.Unlock()
	return rd
}

// breaker reads the breaker's state and counters for /v1/stats.
func (m *member) breaker() (state breakerState, opens, trials uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state, m.opens, m.trials
}
