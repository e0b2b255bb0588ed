package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"octant/internal/batch"
	"octant/internal/serve"
)

// TestMemberBreakerStateMachine drives one member's admission rules on an
// explicit clock — no sleeps, no HTTP: closed → open at the threshold →
// shed inside the cooldown → exactly one half-open trial after it, other
// half-open callers admitted as ordinary traffic, a failed trial re-opening
// with a fresh cooldown, and a dispatch success closing the breaker.
func TestMemberBreakerStateMachine(t *testing.T) {
	const cooldown = time.Second
	r, err := NewRouter([]*NodeClient{{Name: "a", BaseURL: "http://127.0.0.1:1"}},
		RouterConfig{BreakerThreshold: 2, BreakerCooldown: cooldown})
	if err != nil {
		t.Fatal(err)
	}
	m := r.members["a"]
	t0 := time.Unix(1_000_000, 0)
	step := func(what string, now time.Time, wantOK, wantTrial bool) {
		t.Helper()
		if ok, trial := m.allow(now); ok != wantOK || trial != wantTrial {
			t.Fatalf("%s: allow = (%v, %v), want (%v, %v)", what, ok, trial, wantOK, wantTrial)
		}
	}
	expect := func(what string, wantState breakerState, wantOpens, wantTrials uint64) {
		t.Helper()
		if state, opens, trials := m.breaker(); state != wantState || opens != wantOpens || trials != wantTrials {
			t.Fatalf("%s: (state, opens, trials) = (%s, %d, %d), want (%s, %d, %d)",
				what, state, opens, trials, wantState, wantOpens, wantTrials)
		}
	}

	step("fresh member", t0, true, false)
	m.report(t0, false)
	step("one failure below the threshold", t0, true, false)
	expect("one failure below the threshold", breakerClosed, 0, 0)
	m.report(t0, false)
	expect("threshold reached", breakerOpen, 1, 0)
	m.report(t0, false)
	expect("a failure racing the open", breakerOpen, 1, 0)
	step("inside the cooldown", t0.Add(cooldown-time.Nanosecond), false, false)
	expect("inside the cooldown", breakerOpen, 1, 0)

	t1 := t0.Add(cooldown)
	step("cooldown over: the trial", t1, true, true)
	step("second half-open caller", t1, true, false)
	step("third half-open caller", t1.Add(time.Millisecond), true, false)
	expect("half-open", breakerHalfOpen, 1, 1)

	t2 := t1.Add(100 * time.Millisecond)
	m.report(t2, false)
	expect("failed trial", breakerOpen, 2, 1)
	// The cooldown runs from the re-open, not from the first open.
	step("fresh cooldown", t0.Add(2*cooldown), false, false)
	step("fresh cooldown over", t2.Add(cooldown), true, true)
	expect("second trial", breakerHalfOpen, 2, 2)

	m.report(t2.Add(cooldown), true)
	expect("successful dispatch", breakerClosed, 2, 2)
	// Closing reset the failure run: one failure no longer opens it.
	m.report(t2.Add(cooldown), false)
	step("one failure after closing", t2.Add(cooldown), true, false)
	expect("one failure after closing", breakerClosed, 2, 2)

	// A non-positive threshold is the default, not "no breaker".
	r, err = NewRouter([]*NodeClient{{Name: "a"}}, RouterConfig{BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.BreakerThreshold != 3 {
		t.Fatalf("BreakerThreshold -1 became %d, want the default 3", r.cfg.BreakerThreshold)
	}
}

// hungAndOKFront is a front door over two members under the default
// RouterConfig: "hung" accepts connections and never answers, "ok" is
// ready and serves empty stats. Ring order puts hung first. get serves
// path and fails the test if the answer takes longer than 5s.
func hungAndOKFront(t *testing.T) (get func(path string) *httptest.ResponseRecorder) {
	t.Helper()
	release := make(chan struct{})
	hungSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(hungSrv.Close)
	t.Cleanup(func() { close(release) }) // runs first: lets hung's handlers return so Close can
	okSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/readyz":
			serve.WriteJSON(w, http.StatusOK, serve.Readiness{Ready: true, Epoch: 1})
		case "/v1/stats":
			serve.WriteJSON(w, http.StatusOK, batch.Stats{})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(okSrv.Close)
	router, err := NewRouter([]*NodeClient{{Name: "hung", BaseURL: hungSrv.URL}, {Name: "ok", BaseURL: okSrv.URL}}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewFront(router, nil).Handler()
	return func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still waiting on the hung member after 5s", path)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec
	}
}

// TestHungMemberDoesNotStallStatsOrClusterView: a member that accepts
// connections and never answers must cost the front door's merged views
// one probe timeout, not the caller's whole wait. /v1/stats lists it
// unreachable and /v1/cluster lists it not ready, beside a healthy member
// reported as usual. Fetched with the caller's context alone, both would
// hang as long as the member does: the default client has no timeout.
func TestHungMemberDoesNotStallStatsOrClusterView(t *testing.T) {
	within := hungAndOKFront(t)
	var stats ClusterStats
	if err := json.Unmarshal(within("/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats.Unreachable, []string{"hung"}) {
		t.Errorf("unreachable = %v, want [hung]", stats.Unreachable)
	}
	if _, ok := stats.Nodes["ok"]; !ok || len(stats.Nodes) != 1 {
		t.Errorf("nodes = %v, want only ok's stats", stats.Nodes)
	}

	var view clusterView
	if err := json.Unmarshal(within("/v1/cluster").Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	ready := map[string]bool{}
	for _, n := range view.Nodes {
		ready[n.Name] = n.Ready
	}
	if want := map[string]bool{"hung": false, "ok": true}; !reflect.DeepEqual(ready, want) {
		t.Errorf("/v1/cluster readiness = %v, want %v", ready, want)
	}
}

// TestHungMemberDoesNotHideAReadyOne: /v1/readyz asks the members in ring
// order until one is ready. A hung member first in that order must cost
// its own probe timeout and no more, so the ready member after it is
// still asked and the front door answers 200. Under one deadline shared
// by the whole walk, the hung member's probe used it up and the front
// door reported "no ready nodes".
func TestHungMemberDoesNotHideAReadyOne(t *testing.T) {
	var rd serve.Readiness
	if err := json.Unmarshal(hungAndOKFront(t)("/v1/readyz").Body.Bytes(), &rd); err != nil {
		t.Fatal(err)
	}
	if !rd.Ready || rd.Epoch != 1 {
		t.Errorf("/v1/readyz = %+v, want ready at epoch 1", rd)
	}
}

// TestCancelledClusterViewCachesNothing: a /v1/cluster caller that gives
// up mid-walk must not leave the members it had not reached cached as not
// ready for ReadyTTL. Its cancellation says nothing about the nodes, and
// such a verdict would drop healthy members from admission.
func TestCancelledClusterViewCachesNothing(t *testing.T) {
	okSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, serve.Readiness{Ready: true, Epoch: 1})
	}))
	t.Cleanup(okSrv.Close)
	router, err := NewRouter([]*NodeClient{{Name: "a", BaseURL: okSrv.URL}, {Name: "b", BaseURL: okSrv.URL}},
		RouterConfig{ReadyTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/cluster", nil).WithContext(ctx)
	NewFront(router, nil).Handler().ServeHTTP(httptest.NewRecorder(), req)
	for _, name := range []string{"a", "b"} {
		if !router.members[name].admit(context.Background()) {
			t.Errorf("healthy member %s not admitted after a cancelled /v1/cluster", name)
		}
	}

	// Nor does a half-open trial whose caller gives up re-open the breaker:
	// the next caller is admitted on a fresh verdict.
	m, long := router.members["a"], time.Now().Add(-time.Hour)
	for i := 0; i < router.cfg.BreakerThreshold; i++ {
		m.report(long, false)
	}
	if m.admit(ctx) {
		t.Fatal("a cancelled trial admitted the member")
	}
	if state, opens, trials := m.breaker(); state != breakerHalfOpen || opens != 1 || trials != 1 {
		t.Fatalf("after a cancelled trial (state, opens, trials) = (%s, %d, %d), want (half-open, 1, 1)", state, opens, trials)
	}
	if !m.admit(context.Background()) {
		t.Error("healthy member not admitted after a cancelled trial")
	}
}
