package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"octant/internal/serve"
)

// stubNode is an httptest stand-in for a serve node: ready at once, an
// empty result cache, and localize routes that answer every target with a
// bare line — after localize (when set) has had its say. A localize that
// blocks must return once the request's context ends.
func stubNode(t *testing.T, name string, localize func(r *http.Request)) *NodeClient {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, serve.Readiness{Ready: true})
	})
	mux.HandleFunc("/v1/cache/lookup", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteError(w, http.StatusNotFound, "miss")
	})
	line := func(target string) serve.TargetResultV2 {
		return serve.TargetResultV2{TargetResult: serve.TargetResult{Target: target, AreaKm2: 1}}
	}
	mux.HandleFunc("/v2/localize", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Target string `json:"target"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		if localize != nil {
			localize(r)
		}
		serve.WriteJSON(w, http.StatusOK, line(req.Target))
	})
	mux.HandleFunc("/v2/localize/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Targets []string `json:"targets"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		if localize != nil {
			localize(r)
		}
		enc := json.NewEncoder(w)
		for _, tgt := range req.Targets {
			_ = enc.Encode(line(tgt))
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &NodeClient{Name: name, BaseURL: srv.URL}
}

// ownedKeys returns n distinct keys the ring assigns to owner. The text
// varies widely on purpose: near-identical short keys cluster on the
// FNV ring.
func ownedKeys(t *testing.T, ring *Ring, owner string, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n && i < 10000; i++ {
		k := fmt.Sprintf("host-%d.example.org", i*7919)
		if o, _ := ring.Owner(k); o == owner {
			out = append(out, k)
		}
	}
	if len(out) < n {
		t.Fatalf("found %d/%d keys owned by %s", len(out), n, owner)
	}
	return out
}

// TestHungNodeDoesNotStallTheRing is the regression test for running the
// placement walk under the ring lock: a request that spills off its
// loaded owner probes the next node's /v1/readyz, that node hangs, and
// while it hangs every other user of the ring must go on unhindered. At
// the parent commit Ring.Acquire held Ring.mu across the probe and
// ring.Owner blocked for the probe's whole timeout (≈ 480 ms).
func TestHungNodeDoesNotStallTheRing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	hung := make(chan struct{}, 8) // one token per request that reaches slow; 8 is more than the test sends
	slowSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hung <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-ctx.Done():
		}
	}))
	t.Cleanup(slowSrv.Close)
	t.Cleanup(cancel) // runs first: lets slow's handlers return so Close can
	fast := stubNode(t, "fast", func(r *http.Request) {
		select {
		case <-time.After(400 * time.Millisecond):
		case <-r.Context().Done():
		}
	})
	slow := &NodeClient{Name: "slow", BaseURL: slowSrv.URL}
	r, err := NewRouter([]*NodeClient{fast, slow}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ring := r.Ring()
	keys := ownedKeys(t, ring, "fast", 2)

	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	localize := func(key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = r.Localize(ctx, key, nil) // outcome irrelevant: the test watches the ring
		}()
	}
	// The first request takes fast's one slot (load 1 of a ceiling of 1).
	localize(keys[0])
	for deadline := time.Now().Add(5 * time.Second); ring.Loads()["fast"] != 1; {
		if time.Now().After(deadline) {
			t.Fatal("first request never reached its owner")
		}
		time.Sleep(time.Millisecond)
	}
	// The second finds fast full, walks on to slow and probes it.
	localize(keys[1])
	select {
	case <-hung:
	case <-time.After(5 * time.Second):
		t.Fatal("second request never probed the hung node")
	}
	for i := 0; i < 20; i++ {
		start := time.Now()
		ring.Owner(keys[i%2])
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Fatalf("ring.Owner took %v while a readiness probe of a hung node was in flight", d)
		}
	}
}

// sameButElapsed compares two wire results, wall-clock aside.
func sameButElapsed(a, b serve.TargetResultV2) bool {
	a.ElapsedMs, b.ElapsedMs = 0, 0
	return reflect.DeepEqual(a, b)
}

// TestSingleIsBatchOfOne: Router.Localize is Router.Batch over one target
// — same answer, same counters, same cache rules — and what used to be
// the single path's alone (ring load, the L2 peer fetch) now holds for
// batches.
func TestSingleIsBatchOfOne(t *testing.T) {
	fleet := startFleet(t, 2, 23)
	ctx := context.Background()
	newRouter := func() *Router {
		r, err := NewRouter(fleet.Clients(), RouterConfig{ReadyTTL: 15 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	counters := func(r *Router) RouterStats { return r.Stats(ctx).Router }

	t.Run("same answer and counters", func(t *testing.T) {
		target := fleet.Targets[0]
		// Prime every node's LRU so both routes below are served a cached
		// copy and differ in nothing but wall-clock.
		for _, nc := range fleet.Clients() {
			if _, err := nc.LocalizeV2(ctx, target, nil); err != nil {
				t.Fatal(err)
			}
		}
		single, batch := newRouter(), newRouter()
		one, err := single.Localize(ctx, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		many, err := batch.Batch(ctx, []string{target}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(many) != 1 || !sameButElapsed(one, many[0]) {
			t.Errorf("Localize = %+v, Batch of one = %+v", one, many)
		}
		s, b := counters(single), counters(batch)
		if !reflect.DeepEqual(s, b) || s.L1Misses != 1 || s.Dispatched != 1 || s.L1Hits != 0 {
			t.Errorf("after one request: Localize counters %+v, Batch counters %+v; want equal with l1_misses 1, dispatched 1", s, b)
		}
		again, err := single.Localize(ctx, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		manyAgain, err := batch.Batch(ctx, []string{target}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameButElapsed(again, one) || !sameButElapsed(manyAgain[0], one) {
			t.Errorf("repeat differs: %+v / %+v vs %+v", again, manyAgain[0], one)
		}
		s, b = counters(single), counters(batch)
		if !reflect.DeepEqual(s, b) || s.L1Hits != 1 || s.L1Misses != 1 || s.Dispatched != 1 {
			t.Errorf("after the repeat: Localize counters %+v, Batch counters %+v; want equal with l1_hits 1 and nothing new dispatched", s, b)
		}
	})

	t.Run("failing target", func(t *testing.T) {
		r := newRouter()
		_, err := r.Localize(ctx, "no.such.host", nil)
		re, ok := err.(*RouteError)
		if !ok || re.Status != http.StatusUnprocessableEntity {
			t.Fatalf("Localize of an unknown host: %v, want a 422 RouteError", err)
		}
		lines, err := r.Batch(ctx, []string{"no.such.host"}, nil)
		if err != nil {
			t.Fatalf("Batch of an unknown host failed outright: %v", err)
		}
		if len(lines) != 1 || lines[0].Target != "no.such.host" || lines[0].Error != re.Message {
			t.Errorf("Batch line = %+v, want the error %q inline", lines, re.Message)
		}
		// In company too: the failure is one line, not the batch's fate,
		// and its lack of an epoch is not a mixed-epoch response.
		lines, err = r.Batch(ctx, []string{fleet.Targets[1], "no.such.host", fleet.Targets[2]}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lines[0].Error != "" || lines[1].Error != re.Message || lines[2].Error != "" {
			t.Errorf("mixed batch = %+v", lines)
		}
		if got := counters(r).EpochRepairs; got != 0 {
			t.Errorf("an error line triggered %d epoch repairs", got)
		}
		if _, ok := r.cache.Get(Key{Target: "no.such.host", Epoch: r.Epoch()}); ok {
			t.Error("a failed target entered the front-door cache")
		}
	})

	t.Run("degraded never cached", func(t *testing.T) {
		// Down a fifth of the landmarks: quorum holds, results degrade.
		landmarks := fleet.World.HostNodes()[40:]
		for _, lm := range landmarks[:len(landmarks)/5] {
			fleet.World.SetNodeDown(lm.ID, true)
			defer fleet.World.SetNodeDown(lm.ID, false)
		}
		r := newRouter()
		target := fleet.Targets[6]
		for i := 1; i <= 2; i++ {
			one, err := r.Localize(ctx, target, nil)
			if err != nil {
				t.Fatal(err)
			}
			many, err := r.Batch(ctx, []string{target}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !one.Degraded || !many[0].Degraded {
				t.Fatalf("results not degraded with landmarks down: %+v / %+v", one, many[0])
			}
			s := counters(r)
			if want := uint64(2 * i); s.Degraded != want || s.Dispatched != want || s.L1Len != 0 || s.L1Hits != 0 {
				t.Errorf("after %d degraded answers: counters %+v, want each dispatched and none cached", want, s)
			}
		}
	})

	t.Run("displaced batch targets peer-fetch", func(t *testing.T) {
		targets := fleet.Targets[8:16]
		r1 := newRouter()
		first, err := r1.Batch(ctx, targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Drain node-0 and ask again through a front door with a cold L1:
		// node-0's targets are displaced onto node-1, which must fetch them
		// from node-0's cache instead of measuring.
		drained, other := fleet.Nodes[0], fleet.Nodes[1]
		displaced := 0
		for _, tgt := range targets {
			if owner, _ := r1.Ring().Owner(routeKey(tgt, "")); owner == drained.Name {
				displaced++
			}
		}
		if displaced == 0 || displaced == len(targets) {
			t.Fatalf("%d/%d targets owned by %s; the test needs some on each node", displaced, len(targets), drained.Name)
		}
		drained.Server.SetDraining(true)
		defer drained.Server.SetDraining(false)
		r2 := newRouter()
		before := other.Server.Engine().Stats().Requests
		pings := fleet.World.PingCalls()
		second, err := r2.Batch(ctx, targets, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range second {
			if !second[i].Cached || *second[i].Lat != *first[i].Lat || *second[i].Lon != *first[i].Lon || second[i].Epoch != first[i].Epoch {
				t.Errorf("%s: second answer %+v, first %+v", targets[i], second[i], first[i])
			}
		}
		s := counters(r2)
		if s.PeerFetches != uint64(displaced) || s.Dispatched != uint64(len(targets)-displaced) {
			t.Errorf("peer_fetches %d dispatched %d, want %d and %d", s.PeerFetches, s.Dispatched, displaced, len(targets)-displaced)
		}
		if got := other.Server.Engine().Stats().Requests - before; got != uint64(len(targets)-displaced) {
			t.Errorf("%s served %d requests, want only its own %d", other.Name, got, len(targets)-displaced)
		}
		if got := fleet.World.PingCalls() - pings; got != 0 {
			t.Errorf("the repeat issued %d probes, want 0", got)
		}
	})
}

// TestSubBatchHoldsRingLoad: a dispatched sub-request books its targets
// against its node for as long as it is in flight, so the bounded-load
// rule sees batches, and a lone batch on an idle fleet still lands every
// target on its owner.
func TestSubBatchHoldsRingLoad(t *testing.T) {
	arrived := make(chan struct{})
	gate := make(chan struct{})
	hold := func(r *http.Request) {
		arrived <- struct{}{}
		select {
		case <-gate:
		case <-r.Context().Done():
		}
	}
	r, err := NewRouter([]*NodeClient{stubNode(t, "node-0", hold), stubNode(t, "node-1", hold)}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ring := r.Ring()
	targets := append(ownedKeys(t, ring, "node-0", 5), ownedKeys(t, ring, "node-1", 3)...)

	done := make(chan error, 1)
	go func() {
		_, err := r.Batch(context.Background(), targets, nil)
		done <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatal("sub-batches never reached both nodes")
		}
	}
	if got := ring.Loads(); got["node-0"] != 5 || got["node-1"] != 3 {
		t.Errorf("loads in flight = %v, want node-0:5 node-1:3 (every target on its owner)", got)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for node, load := range ring.Loads() {
		if load != 0 {
			t.Errorf("%s still holds load %d after the batch returned", node, load)
		}
	}
}
