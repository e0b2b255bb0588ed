package cluster

import (
	"context"
	"testing"
	"time"
)

// TestBreakerKillRevive is the node-recovery acceptance check: with a
// readiness TTL far longer than the test, a killed node's return to
// rotation must be driven by the breaker's half-open trial probe — not
// by waiting out the stale not-ready verdict.
func TestBreakerKillRevive(t *testing.T) {
	fleet := startFleet(t, 3, 19)
	ctx := context.Background()
	r, err := NewRouter(fleet.Clients(), RouterConfig{
		// So long that recovery cannot come from TTL expiry.
		ReadyTTL:         time.Minute,
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Millisecond,
		FailoverBackoff:  -1, // no sleeps; this test measures state, not pacing
		CacheSize:        -1, // no L1, so every request dispatches
	})
	if err != nil {
		t.Fatal(err)
	}
	target := fleet.Targets[0]
	ownerName, _ := r.Ring().Owner(routeKey(target, ""))
	owner := nodeByName(t, fleet, ownerName)

	// Warm: the owner serves and is cached ready for the next minute.
	if _, err := r.Localize(ctx, target, nil); err != nil {
		t.Fatalf("warm localize: %v", err)
	}

	// Kill the owner. The cached verdict still says ready, so the next
	// request dispatches to it, fails, opens the breaker (threshold 1),
	// and fails over — with no client-visible error.
	owner.Kill()
	if _, err := r.Localize(ctx, target, nil); err != nil {
		t.Fatalf("localize during owner outage: %v", err)
	}
	st := r.Stats(ctx)
	if got := st.Router.Breakers[ownerName]; got != "open" {
		t.Fatalf("after failed dispatch, breaker[%s] = %q, want open", ownerName, got)
	}
	if st.Router.BreakerOpens == 0 {
		t.Fatal("breaker opened but BreakerOpens counter is zero")
	}
	if st.Router.Failovers == 0 {
		t.Fatal("owner dispatch failed but Failovers counter is zero")
	}

	// Revive, inside the cooldown: the breaker still sheds the owner and
	// another node serves.
	if err := owner.Revive(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Localize(ctx, target, nil); err != nil {
		t.Fatalf("localize right after revive: %v", err)
	}

	// After the cooldown, the half-open trial re-probes readiness fresh
	// (bypassing the minute-long TTL cache), sees the revived node, and
	// one successful dispatch closes the breaker.
	time.Sleep(50 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := r.Localize(ctx, target, nil); err != nil {
			t.Fatalf("localize after cooldown: %v", err)
		}
		st = r.Stats(ctx)
		if st.Router.Breakers[ownerName] == "closed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker[%s] never closed after revive+cooldown (state %q, trials %d)",
				ownerName, st.Router.Breakers[ownerName], st.Router.BreakerTrials)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Router.BreakerTrials == 0 {
		t.Fatal("breaker closed without any recorded half-open trial")
	}
}

// TestChaosSoak runs the full chaos harness: landmark faults, serving-
// node kill/revive, and a recovery phase under continuous load. RunChaos
// itself asserts the invariants (zero client-visible errors, degraded
// results observed, bounded accuracy loss, full recovery) and returns an
// error when any fails.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	report, err := RunChaos(ChaosConfig{
		Seed:     11,
		Duration: 1500 * time.Millisecond,
		Log:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("chaos soak issued no requests")
	}
	if report.Cluster.Router.Failovers == 0 {
		t.Error("node kills happened but the router never failed over")
	}
	t.Logf("chaos: %d requests, %d degraded, healthy %.0f km vs chaos %.0f km, %d failovers, %d breaker opens",
		report.Requests, report.Degraded, report.HealthyMedianKm, report.ChaosMedianKm,
		report.Cluster.Router.Failovers, report.Cluster.Router.BreakerOpens)
}
