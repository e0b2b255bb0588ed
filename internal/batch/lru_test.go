package batch

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"octant/internal/core"
	"octant/internal/lru"
)

// resAt mints a result whose Weight encodes the epoch it was "computed"
// under, so epoch-discipline violations are visible in the value itself.
func resAt(epoch uint64) *core.Result {
	return &core.Result{Weight: float64(epoch)}
}

// newLRU is the engine's result cache, as NewWithProvider builds it.
func newLRU(capacity int, ttl time.Duration) *lru.Cache[Key, *core.Result] {
	return lru.New[Key, *core.Result](capacity, ttl)
}

// at is the Key of target "k" under fingerprint fp at epoch e.
func at(fp string, e uint64) Key { return Key{Target: "k", Fingerprint: fp, Epoch: e} }

// TestLRUEpochDiscipline pins the epoch rules the Key gives the cache: a
// borrower at epoch E reads only E's entry, whichever epochs hold the
// same target; a straggler's put lands under its own epoch and leaves the
// fresher entry alone; and superseded entries age out in LRU order. (The
// pre-Key cache also evicted an older-epoch entry on first touch; with
// the epoch in the key no reader can touch it, so that rule is gone.)
func TestLRUEpochDiscipline(t *testing.T) {
	c := newLRU(2, 0)
	c.Put(at("", 1), resAt(1))

	if _, ok := c.Get(at("", 0)); ok {
		t.Fatal("epoch-0 borrower hit an epoch-1 entry")
	}
	if res, ok := c.Get(at("", 1)); !ok || res.Weight != 1 {
		t.Fatalf("same-epoch get = %v, %v; want the epoch-1 result", res, ok)
	}
	if _, ok := c.Get(at("", 2)); ok {
		t.Fatal("epoch-2 borrower hit a stale epoch-1 entry")
	}
	if _, ok := c.Get(at("fp", 1)); ok {
		t.Fatal("tuned borrower hit the default request's entry")
	}

	c.Put(at("", 2), resAt(2))
	c.Put(at("", 1), resAt(1)) // straggler from before the swap
	if res, ok := c.Get(at("", 2)); !ok || res.Weight != 2 {
		t.Fatalf("straggler clobbered the fresh entry: get = %v, %v", res, ok)
	}
	if res, ok := c.Get(at("", 1)); !ok || res.Weight != 1 {
		t.Fatalf("straggler's put = %v, %v; want it under its own epoch", res, ok)
	}

	// Epoch 3 traffic only: the superseded entries go first, oldest use
	// first, and the cache never outgrows its capacity.
	c.Put(at("", 3), resAt(3))
	c.Put(Key{Target: "other", Epoch: 3}, resAt(3))
	if _, ok := c.Get(at("", 2)); ok {
		t.Error("epoch-2 entry survived two epoch-3 puts into a full cache")
	}
	if _, ok := c.Get(at("", 1)); ok {
		t.Error("epoch-1 entry survived two epoch-3 puts into a full cache")
	}
	if res, ok := c.Get(at("", 3)); !ok || res.Weight != 3 || c.Len() != 2 {
		t.Errorf("epoch-3 get = %v, %v with %d entries; want the epoch-3 result, 2 entries", res, ok, c.Len())
	}
}

func TestLRUTTLExpiry(t *testing.T) {
	c := newLRU(8, 10*time.Millisecond)
	c.Put(at("", 0), resAt(0))
	if _, ok := c.Get(at("", 0)); !ok {
		t.Fatal("fresh entry missed")
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok := c.Get(at("", 0)); ok {
		t.Fatal("expired entry served")
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry not evicted (len %d)", c.Len())
	}
}

// TestLRUConcurrentMixedEpochs hammers one cache from readers and
// writers pinned to different epochs — the live shape during a rolling
// survey swap, when stragglers on the old snapshot and requests on the
// new one share the LRU. The invariant: a hit observed at epoch e is
// always a result computed at epoch e, no matter how the interleaving
// falls. Run under -race this is also the cache's data-race test.
func TestLRUConcurrentMixedEpochs(t *testing.T) {
	const (
		workers = 8
		iters   = 2000
		nKeys   = 16
		maxE    = 3
	)
	c := newLRU(nKeys/2, 0) // undersized on purpose: eviction churn included
	var wg sync.WaitGroup
	var violations sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				// Fingerprint-qualified and default keys mixed.
				key := Key{Target: fmt.Sprintf("target-%d", rng.Intn(nKeys)), Epoch: uint64(rng.Intn(maxE + 1))}
				if rng.Intn(2) == 0 {
					key.Fingerprint = "fpA"
				}
				if rng.Intn(2) == 0 {
					c.Put(key, resAt(key.Epoch))
					continue
				}
				if res, ok := c.Get(key); ok && res.Weight != float64(key.Epoch) {
					violations.Store(fmt.Sprintf("epoch %d served weight %v", key.Epoch, res.Weight), true)
				}
			}
		}(w)
	}
	wg.Wait()
	violations.Range(func(k, _ any) bool {
		t.Errorf("cross-epoch hit: %s", k)
		return true
	})
	if c.Len() > nKeys/2 {
		t.Errorf("cache over capacity after churn: %d > %d", c.Len(), nKeys/2)
	}
	// Whatever survived, a max-epoch reader can only ever see max-epoch
	// results.
	for i := 0; i < nKeys; i++ {
		if res, ok := c.Get(Key{Target: fmt.Sprintf("target-%d", i), Epoch: maxE}); ok && res.Weight != maxE {
			t.Errorf("target-%d: max-epoch get returned epoch-%v result", i, res.Weight)
		}
	}
}

// TestFlightKeyUniqueness exercises the engine's flight over Key:
// concurrent calls for one target under DIFFERENT fingerprints or epochs
// must run independently — coalescing them would hand a caller a result
// under options it did not ask for — while calls under the SAME Key
// coalesce onto one measurement.
func TestFlightKeyUniqueness(t *testing.T) {
	var g flight
	// do drives one key through join/finish the way a one-target call
	// does: lead and finish, or follow and share.
	do := func(key Key, fn func() (*core.Result, error)) (*core.Result, error, bool) {
		c, leader := g.join(key)
		if !leader {
			<-c.done
			return c.val, c.err, true
		}
		res, err := fn()
		g.finish(c, res, err)
		return res, err, false
	}
	flightKey := func(epoch uint64, target, fp string) Key {
		return Key{Target: target, Fingerprint: fp, Epoch: epoch}
	}

	// Distinct fingerprints (and distinct epochs) for one target: every
	// leader must run its own fn. Leaders block on gate so the calls are
	// genuinely concurrent — coalescing would deadlock-free but report
	// shared=true and return another key's result.
	keys := []Key{
		flightKey(0, "host", ""),
		flightKey(0, "host", "fpA"),
		flightKey(0, "host", "fpB"),
		flightKey(1, "host", "fpA"),
	}
	gate := make(chan struct{})
	started := make(chan int, len(keys))
	results := make([]*core.Result, len(keys))
	shareds := make([]bool, len(keys))
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func(i int, key Key) {
			defer wg.Done()
			want := resAt(uint64(i))
			results[i], _, shareds[i] = do(key, func() (*core.Result, error) {
				started <- i
				<-gate
				return want, nil
			})
		}(i, key)
	}
	// All four fns must start before any finishes — proof none coalesced.
	for range keys {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("calls with distinct fingerprint keys coalesced: not all leaders started")
		}
	}
	close(gate)
	wg.Wait()
	for i := range keys {
		if shareds[i] {
			t.Errorf("call %d reported shared=true under a unique key", i)
		}
		if results[i] == nil || results[i].Weight != float64(i) {
			t.Errorf("call %d got result %+v, want its own (weight %d)", i, results[i], i)
		}
	}

	// Control: the SAME key does coalesce — one leader, one follower, one
	// shared result.
	var ran int
	gate2 := make(chan struct{})
	leaderIn := make(chan struct{})
	key := flightKey(2, "host", "fpA")
	var follower *core.Result
	var followerShared bool
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		_, _, _ = do(key, func() (*core.Result, error) {
			ran++
			close(leaderIn)
			<-gate2
			return resAt(99), nil
		})
	}()
	<-leaderIn
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		follower, _, followerShared = do(key, func() (*core.Result, error) {
			ran++
			return resAt(100), nil
		})
	}()
	// Give the follower a moment to park on the leader's call, then
	// release.
	time.Sleep(10 * time.Millisecond)
	close(gate2)
	wg2.Wait()
	if ran != 1 {
		t.Fatalf("same-key concurrent calls ran %d fns, want 1", ran)
	}
	if !followerShared || follower == nil || follower.Weight != 99 {
		t.Fatalf("follower got %+v (shared=%v), want the leader's result shared", follower, followerShared)
	}
}
