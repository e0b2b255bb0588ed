package netsim

import (
	"strings"
	"sync"
	"testing"
)

// twoHosts returns the node IDs of two distinct end hosts.
func twoHosts(t *testing.T, w *World) (int, int) {
	t.Helper()
	hosts := w.HostNodes()
	if len(hosts) < 2 {
		t.Fatal("world has fewer than two hosts")
	}
	return hosts[0].ID, hosts[1].ID
}

func TestNodeDownFaults(t *testing.T) {
	w := testWorld(t)
	a, b := twoHosts(t, w)

	if got := w.Ping(a, b, 5); len(got) != 5 {
		t.Fatalf("healthy ping returned %d samples, want 5", len(got))
	}
	if reason := w.PathFault(a, b); reason != "" {
		t.Fatalf("healthy path reports fault %q", reason)
	}

	w.SetNodeDown(b, true)
	if !w.cond.Load().nodeDown(b) {
		t.Fatal("NodeDown(b) false after SetNodeDown")
	}
	if got := w.Ping(a, b, 5); got != nil {
		t.Fatalf("ping to downed node returned %d samples, want none", len(got))
	}
	if got := w.Ping(b, a, 5); got != nil {
		t.Fatal("ping from downed node returned samples")
	}
	if reason := w.PathFault(a, b); !strings.Contains(reason, "down") {
		t.Fatalf("PathFault = %q, want a node-down reason", reason)
	}
	if hops := w.Traceroute(a, b, 3); hops != nil {
		t.Fatal("traceroute to downed endpoint returned hops")
	}

	w.SetNodeDown(b, false)
	if w.cond.Load().nodeDown(b) {
		t.Fatal("node b still down after clearing")
	}
	if got := w.Ping(a, b, 5); len(got) != 5 {
		t.Fatal("ping did not recover after clearing node-down")
	}
}

func TestDownedRouterTruncatesTraceroute(t *testing.T) {
	w := testWorld(t)
	a, b := twoHosts(t, w)
	healthy := w.Traceroute(a, b, 3)
	if len(healthy) < 2 {
		t.Skipf("path %d→%d too short to truncate", a, b)
	}
	// Down the first intermediate hop: the trace must stop before it.
	first := healthy[0].NodeID
	w.SetNodeDown(first, true)
	defer w.SetNodeDown(first, false)
	truncated := w.Traceroute(a, b, 3)
	if len(truncated) >= len(healthy) {
		t.Fatalf("trace through downed router has %d hops, healthy had %d", len(truncated), len(healthy))
	}
	for _, h := range truncated {
		if h.NodeID == first {
			t.Fatal("truncated trace still includes the downed router")
		}
	}
}

func TestPairBlackhole(t *testing.T) {
	w := testWorld(t)
	hosts := w.HostNodes()
	a, b, c := hosts[0].ID, hosts[1].ID, hosts[2].ID

	w.SetPairBlackhole(a, b, true)
	if !strings.Contains(w.PathFault(a, b), "blackhole") || !strings.Contains(w.PathFault(b, a), "blackhole") {
		t.Fatal("blackhole not symmetric")
	}
	if got := w.Ping(a, b, 5); got != nil {
		t.Fatal("ping across blackholed pair returned samples")
	}
	if got := w.Ping(b, a, 5); got != nil {
		t.Fatal("reverse ping across blackholed pair returned samples")
	}
	if reason := w.PathFault(a, b); !strings.Contains(reason, "blackhole") {
		t.Fatalf("PathFault = %q, want a blackhole reason", reason)
	}
	// Other pairs are untouched: faults are per-pair, not per-node.
	if got := w.Ping(a, c, 5); len(got) != 5 {
		t.Fatal("blackhole on (a,b) leaked into (a,c)")
	}

	w.SetPairBlackhole(a, b, false)
	if got := w.Ping(a, b, 5); len(got) != 5 {
		t.Fatal("ping did not recover after clearing blackhole")
	}
}

func TestPairLossRate(t *testing.T) {
	w := testWorld(t)
	a, b := twoHosts(t, w)

	// Total loss: pings succeed as calls but return no samples — the
	// shape of a timed-out probe train, distinct from an unreachable
	// path (PathFault stays empty).
	w.SetPairLossRate(a, b, 1.0)
	if got := w.Ping(a, b, 8); len(got) != 0 {
		t.Fatalf("100%% loss returned %d samples", len(got))
	}
	if reason := w.PathFault(a, b); reason != "" {
		t.Fatalf("loss should not be a path fault, got %q", reason)
	}

	// Partial loss: across many trains, some samples drop and some
	// survive, and successive calls see fresh loss draws.
	w.SetPairLossRate(a, b, 0.5)
	total, kept := 0, 0
	sizes := map[int]bool{}
	for i := 0; i < 20; i++ {
		got := w.Ping(a, b, 10)
		total += 10
		kept += len(got)
		sizes[len(got)] = true
	}
	if kept == 0 || kept == total {
		t.Fatalf("50%% loss kept %d/%d samples", kept, total)
	}
	if len(sizes) == 1 {
		t.Fatal("every lossy train kept the same count; retries would see a frozen loss pattern")
	}

	w.SetPairLossRate(a, b, 0)
	if got := w.Ping(a, b, 8); len(got) != 8 {
		t.Fatal("ping did not recover after clearing loss")
	}
}

// TestFaultsClearBitIdentical is the zero-fault identity guarantee:
// injecting and clearing faults and drift must leave the world's
// measurements bit for bit where they were, and conditions on one pair
// must not perturb the jitter stream of another.
func TestFaultsClearBitIdentical(t *testing.T) {
	w := testWorld(t)
	hosts := w.HostNodes()
	a, b, c := hosts[0].ID, hosts[1].ID, hosts[2].ID

	before := w.Ping(a, b, 10)

	// Conditions elsewhere: (a,c) lossy and drifted, c down.
	w.SetPairLossRate(a, c, 0.9)
	w.SetPairDriftMs(a, c, 3)
	w.SetNodeDown(c, true)
	during := w.Ping(a, b, 10)
	for i := range before {
		if before[i] != during[i] {
			t.Fatalf("sample %d changed while faults were active elsewhere: %v vs %v", i, before[i], during[i])
		}
	}

	// Fault and drift the pair itself, then clear everything.
	w.SetPairLossRate(a, b, 0.7)
	w.SetPairBlackhole(a, b, true)
	w.SetPairDriftMs(a, b, 12.5)
	w.SetPairBlackhole(a, b, false)
	w.SetPairLossRate(a, b, 0)
	w.SetPairDriftMs(a, b, 0)
	w.SetNodeDown(c, false)
	w.SetPairLossRate(a, c, 0)
	w.SetPairDriftMs(a, c, 0)
	if w.cond.Load() != nil {
		t.Fatal("clearing every condition left a non-nil conditions snapshot")
	}

	after := w.Ping(a, b, 10)
	if len(after) != len(before) {
		t.Fatalf("sample count changed after clearing faults: %d vs %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("sample %d not bit-identical after clearing faults: %v vs %v", i, before[i], after[i])
		}
	}
}

// TestSetRaceKeepsLaterFaults: a set and a clear racing on one pair must
// not hide a condition injected afterwards. Each round makes a pair
// lossy, races a second set against a clear on that pair, clears it,
// then downs a node: the conditions must report it every time. A record of
// "is anything injected" kept apart from the conditions themselves can
// lose count in exactly this interleaving and then read every later
// fault as absent.
func TestSetRaceKeepsLaterFaults(t *testing.T) {
	w := testWorld(t)
	hosts := w.HostNodes()
	a, b, c := hosts[0].ID, hosts[1].ID, hosts[2].ID
	const rounds = 20000
	lost := 0
	for i := 0; i < rounds; i++ {
		w.SetPairLossRate(a, b, 0.5)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); w.SetPairLossRate(a, b, 0.25) }()
		go func() { defer wg.Done(); w.SetPairLossRate(a, b, 0) }()
		wg.Wait()
		w.SetPairLossRate(a, b, 0)
		w.SetNodeDown(c, true)
		if !w.cond.Load().nodeDown(c) {
			lost++
		}
		w.SetNodeDown(c, false)
	}
	if lost > 0 {
		t.Fatalf("node-down lost in %d of %d rounds", lost, rounds)
	}
}
