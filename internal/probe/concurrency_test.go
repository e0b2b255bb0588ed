package probe

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octant/internal/netsim"
)

// TestConcurrentPingWithFaultsRace is the measurement stack's shared-state
// audit in executable form (run under -race in CI): many goroutines ping
// through one RetryProber over one simulated world, and every flipEvery-th
// ping, counted across all of them, applies the next step of a fault
// schedule while the other goroutines' probes are in flight. The world's
// fault maps and its probe/loss counters are supposed to be independently
// synchronized; this test is what holds them to it. The schedule is a
// function of the ping count, not of the goroutine scheduler: every step
// is applied exactly once, in order, and leaves the world in the state it
// names. It also pins the retry loop's accounting: every retry (a backoff
// wait) and every exhaustion (a transient error returned) implies an
// attempt that reached the prober.
func TestConcurrentPingWithFaultsRace(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 2})
	var attempts, retries, exhausted atomic.Int64
	p := WithRetry(countingProber{NewSimProber(w), &attempts}, RetryOptions{
		Attempts: 2,
		sleep:    func(context.Context, time.Duration) error { retries.Add(1); return nil },
	})
	hosts := w.HostNodes()
	if len(hosts) < 8 {
		t.Fatalf("world too small: %d hosts", len(hosts))
	}
	target := hosts[0]
	landmarks := hosts[1:8]

	const goroutines, pings, flipEvery = 8, 50, 10
	// Step k sets every fault knob of landmark k mod 7's path to the target
	// for state (k / 7) mod 4 — loss, blackhole, node down, healthy — so
	// each landmark goes through all four states in turn.
	state := func(k int) int { return k / len(landmarks) % 4 }
	var seen [4]int
	step := func(k int) {
		lm, s := landmarks[k%len(landmarks)], state(k)
		loss := 0.0
		if s == 0 {
			loss = 0.5
		}
		w.SetPairLossRate(lm.ID, target.ID, loss)
		w.SetPairBlackhole(lm.ID, target.ID, s == 1)
		w.SetNodeDown(lm.ID, s == 2)
		want := [4]string{"", "path blackholed", "node " + lm.Name + " down", ""}[s]
		if f := w.PathFault(lm.ID, target.ID); f != want || w.PairLossRate(lm.ID, target.ID) != loss {
			t.Errorf("step %d: %s→%s reads fault %q loss %v, want %q %v", k, lm.Name, target.Name, f, w.PairLossRate(lm.ID, target.ID), want, loss)
		}
		seen[s]++
	}
	var (
		started atomic.Int64 // pings started, across goroutines
		mu      sync.Mutex   // serializes the steps
		applied int          // steps applied; guarded by mu
	)
	// due counts a ping and applies, in order, every step the count has
	// reached. Only every flipEvery-th ping takes the lock, so the probes
	// between steps stay unordered with one another for the race detector.
	due := func() {
		if n := int(started.Add(1)); n%flipEvery == 0 {
			mu.Lock()
			for ; applied < n/flipEvery; applied++ {
				step(applied)
			}
			mu.Unlock()
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pings; i++ {
				lm := landmarks[(g+i)%len(landmarks)]
				due()
				// Errors are expected while faults are active; what this
				// test asserts is that concurrent faulted probing is
				// race-free and the counters stay coherent.
				samples, err := p.Ping(lm.Name, target.Name, 4)
				if Transient(err) {
					exhausted.Add(1)
				}
				if err == nil {
					if _, merr := MinRTT(samples); merr != nil && len(samples) > 0 {
						t.Errorf("MinRTT over %d samples: %v", len(samples), merr)
					}
				}
				if (g+i)%3 == 0 {
					if _, err := p.Traceroute(lm.Name, target.Name); err != nil {
						if Transient(err) {
							exhausted.Add(1)
						}
						continue // downed paths legitimately have no route
					}
				}
			}
		}(g)
	}
	wg.Wait()

	steps := goroutines * pings / flipEvery
	if applied != steps {
		t.Fatalf("%d fault steps applied over %d pings, want %d", applied, goroutines*pings, steps)
	}
	for s, n := range seen {
		if n < len(landmarks) {
			t.Errorf("state %d applied %d times, want every landmark through it at least once", s, n)
		}
	}
	// Each path is left as its landmark's last step set it.
	for k := steps - len(landmarks); k < steps; k++ {
		lm := landmarks[k%len(landmarks)]
		if faulted, want := w.PathFault(lm.ID, target.ID) != "" || w.PairLossRate(lm.ID, target.ID) > 0, state(k) != 3; faulted != want {
			t.Errorf("path %s→%s faulted %v after the last step, want %v", lm.Name, target.Name, faulted, want)
		}
	}

	if attempts.Load() == 0 {
		t.Fatal("retry prober made no attempts")
	}
	if retries.Load()+exhausted.Load() > attempts.Load() {
		t.Errorf("incoherent retry accounting: attempts=%d retries=%d exhausted=%d",
			attempts.Load(), retries.Load(), exhausted.Load())
	}
	if w.PingCalls() == 0 {
		t.Error("world's ping counter never advanced under concurrent load")
	}

	// Faults cleared: the world must be healthy again for every pair.
	for _, lm := range landmarks {
		w.SetPairLossRate(lm.ID, target.ID, 0)
		w.SetPairBlackhole(lm.ID, target.ID, false)
		w.SetNodeDown(lm.ID, false)
		if f := w.PathFault(lm.ID, target.ID); f != "" {
			t.Errorf("path %s→%s still faulted after clear: %s", lm.Name, target.Name, f)
		}
	}
}

// countingProber counts the measurement attempts that reach the prober.
type countingProber struct {
	Prober
	n *atomic.Int64
}

func (c countingProber) Ping(src, dst string, n int) ([]float64, error) {
	c.n.Add(1)
	return c.Prober.Ping(src, dst, n)
}

func (c countingProber) Traceroute(src, dst string) ([]Hop, error) {
	c.n.Add(1)
	return c.Prober.Traceroute(src, dst)
}
