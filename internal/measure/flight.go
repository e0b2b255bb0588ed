package measure

import "sync"

// Flight coalesces concurrent work on one key onto a single execution —
// the singleflight shape, split into Join and Finish so one caller can
// lead some keys and follow others. The first joiner of a key leads: it
// does the work and must Finish the call; later joiners follow, waiting
// on Done for the leader's value and error. Nothing is retained after
// Finish (a cache, not the flight, is the reuse layer), and what a
// follower does with a leader's error — a cancelled leader must not
// poison a healthy follower — is the caller's policy: re-Join.
//
// The zero value is ready to use.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*FlightCall[K, V]
}

// FlightCall is one in-flight execution. Val and Err are the leader's
// outcome, valid once Done is closed.
type FlightCall[K comparable, V any] struct {
	key  K
	done chan struct{}
	Val  V
	Err  error
}

// Done is closed when the leader finishes the call.
func (c *FlightCall[K, V]) Done() <-chan struct{} { return c.done }

// Join returns the flight for key, registering a new one — which the
// caller then leads and must Finish — when none is in the air.
func (g *Flight[K, V]) Join(key K) (c *FlightCall[K, V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	if g.calls == nil {
		g.calls = make(map[K]*FlightCall[K, V])
	}
	c = &FlightCall[K, V]{key: key, done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// Finish lands a led flight. The key is removed before Done closes, so a
// later Join starts afresh rather than adopting a finished call; current
// followers wake to the outcome.
func (g *Flight[K, V]) Finish(c *FlightCall[K, V], val V, err error) {
	c.Val, c.Err = val, err
	g.mu.Lock()
	delete(g.calls, c.key)
	g.mu.Unlock()
	close(c.done)
}
