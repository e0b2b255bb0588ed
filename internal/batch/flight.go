package batch

import (
	"sync"

	"octant/internal/core"
)

// flight coalesces concurrent work on one Key onto a single execution —
// the singleflight shape, split into join and finish so one call can
// lead some keys and follow others. The first joiner of a key leads: it
// does the work and must finish the call; later joiners follow, waiting
// on done for the leader's value and error. Nothing is retained after
// finish, and what a follower does with a leader's error — a cancelled
// leader must not poison a healthy follower — is the caller's policy:
// re-join.
//
// The zero value is ready to use.
type flight struct {
	mu    sync.Mutex
	calls map[Key]*flightCall
}

// flightCall is one in-flight execution. val and err are the leader's
// outcome, valid once done is closed.
type flightCall struct {
	key  Key
	done chan struct{}
	val  *core.Result
	err  error
}

// join returns the flight for key, registering a new one — which the
// caller then leads and must finish — when none is in the air.
func (g *flight) join(key Key) (c *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	if g.calls == nil {
		g.calls = make(map[Key]*flightCall)
	}
	c = &flightCall{key: key, done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// finish lands a led flight. The key is removed before done closes, so a
// later join starts afresh rather than adopting a finished call; current
// followers wake to the outcome.
func (g *flight) finish(c *flightCall, val *core.Result, err error) {
	c.val, c.err = val, err
	g.mu.Lock()
	delete(g.calls, c.key)
	g.mu.Unlock()
	close(c.done)
}
