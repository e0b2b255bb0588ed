package netsim

import (
	"math"
	"testing"
)

// TestPairDriftShiftsOnlyThatPair: injected drift raises the drifted
// pair's RTT floor by exactly the offset, symmetrically, while every
// other pair — including pairs sharing an endpoint — measures
// bit-identically to the pre-drift world.
func TestPairDriftShiftsOnlyThatPair(t *testing.T) {
	w := NewWorld(Config{Seed: 4, Sites: DefaultSites[:10]})
	hosts := w.Hosts
	a, b, c := hosts[0], hosts[1], hosts[2]

	baseAB := w.baseRTT(w.cond.Load(), a, b)
	baseAC := w.baseRTT(w.cond.Load(), a, c)
	pingAB := w.Ping(a, b, 5)
	pingAC := w.Ping(a, c, 5)

	w.SetPairDriftMs(a, b, 17.5)
	if got := w.baseRTT(w.cond.Load(), a, b); got != baseAB+17.5 {
		t.Errorf("drifted base = %v, want %v", got, baseAB+17.5)
	}
	if got := w.baseRTT(w.cond.Load(), b, a); got != baseAB+17.5 {
		t.Errorf("drift not symmetric: %v", got)
	}
	if got := w.baseRTT(w.cond.Load(), a, c); got != baseAC {
		t.Errorf("undrifted pair moved: %v != %v", got, baseAC)
	}
	for i, v := range w.Ping(a, b, 5) {
		// base+drift is summed before jitter, so allow one ulp of
		// reassociation; the jitter stream itself must not reroll.
		if math.Abs(v-(pingAB[i]+17.5)) > 1e-9 {
			t.Errorf("drifted ping[%d] = %v, want %v (jitter stream must not reroll)", i, v, pingAB[i]+17.5)
		}
	}
	for i, v := range w.Ping(a, c, 5) {
		if v != pingAC[i] {
			t.Errorf("undrifted ping[%d] moved: %v != %v", i, v, pingAC[i])
		}
	}

	// Removing the drift restores the original floor exactly.
	w.SetPairDriftMs(b, a, 0)
	if got := w.baseRTT(w.cond.Load(), a, b); got != baseAB {
		t.Errorf("drift removal left %v, want %v", got, baseAB)
	}
	if d := w.cond.Load().pair(a, b).driftMs; d != 0 {
		t.Errorf("residual drift %v", d)
	}
}

// TestProbeCallAccounting: the world counts every Ping and Traceroute it
// serves, so higher layers can assert measurement budgets.
func TestProbeCallAccounting(t *testing.T) {
	w := NewWorld(Config{Seed: 5, Sites: DefaultSites[:8]})
	hosts := w.Hosts
	p0, t0 := w.PingCalls(), w.TracerouteCalls()

	w.Ping(hosts[0], hosts[1], 10)
	w.Ping(hosts[1], hosts[2], 1)
	w.MinPing(hosts[2], hosts[3], 4)
	w.Traceroute(hosts[0], hosts[3], 3)

	if got := w.PingCalls() - p0; got != 3 {
		t.Errorf("ping calls = %d, want 3", got)
	}
	if got := w.TracerouteCalls() - t0; got != 1 {
		t.Errorf("traceroute calls = %d, want 1", got)
	}
}
