package cluster

import (
	"fmt"
	"sync"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("target-%d.example.net", i)
	}
	return out
}

func owners(r *Ring, ks []string) map[string]string {
	out := make(map[string]string, len(ks))
	for _, k := range ks {
		o, ok := r.Owner(k)
		if !ok {
			panic("empty ring")
		}
		out[k] = o
	}
	return out
}

func nodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%d", i)
	}
	return out
}

// TestRingDeterminism: two rings built from the same member names agree
// on every owner — the property that lets front doors be replicated
// without coordination.
func TestRingDeterminism(t *testing.T) {
	a := NewRing([]string{"node-2", "node-0", "node-1"}, 0, 0)
	b := NewRing([]string{"node-0", "node-1", "node-2"}, 0, 0) // different order
	for _, k := range keys(500) {
		oa, _ := a.Owner(k)
		ob, _ := b.Owner(k)
		if oa != ob {
			t.Fatalf("rings disagree on %q: %s vs %s", k, oa, ob)
		}
	}
}

// TestRingMovementOnJoinLeave is the minimal-rebalancing property test,
// comparing rings built over different memberships: a ring with one
// member more moves ≈ 1/(n+1) of the keys, all of them TO the new
// member, and a ring with one member fewer moves no key a survivor
// owned.
func TestRingMovementOnJoinLeave(t *testing.T) {
	const nKeys = 10000
	ks := keys(nKeys)
	before := owners(NewRing(nodeNames(4), 128, 0), ks)

	joined := owners(NewRing(nodeNames(5), 128, 0), ks)
	moved := 0
	for _, k := range ks {
		if before[k] != joined[k] {
			moved++
			if joined[k] != "node-4" {
				t.Fatalf("join: %q moved %s → %s, not to the joining node", k, before[k], joined[k])
			}
		}
	}
	// Expected movement is nKeys/5 = 2000; allow generous variance for
	// vnode placement luck but fail on anything structurally wrong
	// (a naive mod-N hash would move ~80% here).
	if moved == 0 || moved > 2*nKeys/5 {
		t.Errorf("join moved %d/%d keys, want ≈ %d", moved, nKeys, nKeys/5)
	}

	left := owners(NewRing(nodeNames(4)[1:], 128, 0), ks)
	for _, k := range ks {
		if before[k] != "node-0" && left[k] != before[k] {
			t.Fatalf("removing node-0 moved %q owned by %s", k, before[k])
		}
		if left[k] == "node-0" {
			t.Fatalf("%q still owned by removed node", k)
		}
	}
}

// acquire places key and books it against the chosen member — the two
// steps the router's scatter and dispatch take in turn. ok is false when
// nothing is eligible.
func acquire(r *Ring, key string, eligible func(string) bool) (node string, release func(), ok bool) {
	if node = place(r, key, eligible); node == "" {
		return "", nil, false
	}
	return node, r.Reserve(node, 1), true
}

func anyNode(string) bool { return true }

// TestRingBoundedLoad: a single hot key spills to other members once the
// owner hits the load ceiling, and never does when the bound is off.
func TestRingBoundedLoad(t *testing.T) {
	bounded := NewRing(nodeNames(4), 64, 1.25)
	var releases []func()
	for i := 0; i < 100; i++ {
		node, release, ok := acquire(bounded, "hot-key", anyNode)
		if !ok {
			t.Fatal("nothing eligible on a ring of four")
		}
		if node == "" {
			t.Fatal("empty assignment")
		}
		releases = append(releases, release)
	}
	loads := bounded.Loads()
	busy := 0
	for _, l := range loads {
		if l > 0 {
			busy++
		}
		// Ceiling for the final acquire: ⌈1.25 · 100/4⌉ = 32 (+1 for the
		// walk happening before the increment).
		if l > 33 {
			t.Errorf("bounded ring let a node reach load %d (loads %v)", l, loads)
		}
	}
	if busy < 3 {
		t.Errorf("hot key spilled to only %d nodes: %v", busy, loads)
	}
	for _, rel := range releases {
		rel()
	}
	for n, l := range bounded.Loads() {
		if l != 0 {
			t.Errorf("load leak on %s: %d after all releases", n, l)
		}
	}

	unbounded := NewRing(nodeNames(4), 64, -1)
	first, rel, ok := acquire(unbounded, "hot-key", anyNode)
	if !ok {
		t.Fatal("nothing eligible on a ring of four")
	}
	defer rel()
	for i := 0; i < 50; i++ {
		n, rel, ok := acquire(unbounded, "hot-key", anyNode)
		if !ok {
			t.Fatal("nothing eligible on a ring of four")
		}
		defer rel()
		if n != first {
			t.Fatalf("unbounded ring moved the hot key: %s vs %s", n, first)
		}
	}
}

// TestConcurrentPlacementOvershootIsBounded: place reads HasRoom and the
// caller reserves afterwards, outside the ring's lock, so placements
// racing onto members at their ceiling can pass the same check. The soft
// bound then gives by at most the number of racers: k goroutines piling
// one hot key onto a three-member ring leave no member more than k above
// the ceiling of the last check.
func TestConcurrentPlacementOvershootIsBounded(t *testing.T) {
	const k, each = 8, 50
	r := NewRing(nodeNames(3), 64, 1.25)
	start := make(chan struct{})
	releases := make([][]func(), k)
	var wg sync.WaitGroup
	for g := range releases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				_, rel, ok := acquire(r, "hot-key", anyNode)
				if !ok {
					t.Error("nothing eligible on a ring of three")
					return
				}
				releases[g] = append(releases[g], rel)
			}
		}()
	}
	close(start)
	wg.Wait()
	// The last check saw at most k·each − 1 reserved keys: its ceiling
	// was at most ⌊1.25 · k·each / 3⌋.
	ceiling := 5 * k * each / 12
	sum := 0
	for n, l := range r.Loads() {
		sum += l
		if l > ceiling+k {
			t.Errorf("%s holds %d keys, ceiling %d + %d racers", n, l, ceiling, k)
		}
	}
	if sum != k*each {
		t.Errorf("ring books %d keys, %d were reserved", sum, k*each)
	}
	for _, rels := range releases {
		for _, rel := range rels {
			rel()
		}
	}
	for n, l := range r.Loads() {
		if l != 0 {
			t.Errorf("load leak on %s: %d after all releases", n, l)
		}
	}
}

// TestRingAcquireEligibility: the eligibility filter routes around
// rejected members, nothing eligible is "no node", and when every
// eligible member is at the ceiling the owner-most eligible one is taken
// rather than none.
func TestRingAcquireEligibility(t *testing.T) {
	r := NewRing(nodeNames(2), 64, 0)
	owner, _ := r.Owner("some-key")
	notOwner := func(name string) bool { return name != owner }
	n, rel, ok := acquire(r, "some-key", notOwner)
	if !ok {
		t.Fatal("acquire found nothing with one member eligible")
	}
	defer rel()
	if n == owner {
		t.Errorf("acquire returned ineligible owner %s", n)
	}
	if _, _, ok := acquire(r, "some-key", func(string) bool { return false }); ok {
		t.Error("acquire with nothing eligible should find no node")
	}
	// n now holds load 1 of a ceiling of 1 and is the only eligible
	// member: the fallback still places the key on it.
	if r.HasRoom(n) {
		t.Fatalf("%s has room at load 1 of 1", n)
	}
	again, rel2, ok := acquire(r, "some-key", notOwner)
	if !ok || again != n {
		t.Errorf("with every eligible member at the ceiling acquire = %q, %v; want %s", again, ok, n)
	}
	if ok {
		rel2()
	}
}
