package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"octant/internal/serve"
)

// startFleet builds a small fleet with cleanup registered.
func startFleet(t *testing.T, n int, seed uint64) *LocalFleet {
	t.Helper()
	fleet, err := StartLocalFleet(FleetConfig{Nodes: n, Seed: seed, Holdout: 40})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	return fleet
}

func nodeByName(t *testing.T, fleet *LocalFleet, name string) *FleetNode {
	t.Helper()
	for _, n := range fleet.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("no fleet node %q", name)
	return nil
}

// TestRouterBatchScatterGather: a batch through the router spans the
// fleet, returns results in submission order, stays single-epoch, and is
// bit-identical to a sequential localization of the same targets.
func TestRouterBatchScatterGather(t *testing.T) {
	fleet := startFleet(t, 2, 11)
	ctx := context.Background()
	r, err := NewRouter(fleet.Clients(), RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	targets := fleet.Targets[:8]

	results, err := r.Batch(ctx, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(targets) {
		t.Fatalf("got %d results for %d targets", len(results), len(targets))
	}
	loc := fleet.Nodes[0].Server.Manager().CurrentLocalizer()
	for i, res := range results {
		if res.Target != targets[i] {
			t.Fatalf("result %d is %q, want %q (submission order)", i, res.Target, targets[i])
		}
		if res.Error != "" {
			t.Fatalf("%s: %s", res.Target, res.Error)
		}
		if res.Epoch != results[0].Epoch {
			t.Fatalf("mixed epochs in one batch: %d vs %d", res.Epoch, results[0].Epoch)
		}
		want, err := loc.LocalizeContext(context.Background(), targets[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Lat == nil || *res.Lat != want.Point.Lat || *res.Lon != want.Point.Lon || res.AreaKm2 != want.AreaKm2 {
			t.Errorf("%s: cluster result differs from sequential", res.Target)
		}
	}

	// The ring decides the split; verify each node that owns targets did
	// serve them.
	wantNodes := make(map[string]bool)
	for _, tgt := range targets {
		owner, _ := r.Ring().Owner(routeKey(tgt, ""))
		wantNodes[owner] = true
	}
	for name := range wantNodes {
		if got := nodeByName(t, fleet, name).Server.Engine().Stats().Requests; got == 0 {
			t.Errorf("node %s owns batch targets but served none", name)
		}
	}

	// A repeat of the same batch is served entirely from the front-door
	// L1 — zero extra dispatches.
	before := r.dispatched.Load()
	again, err := r.Batch(ctx, targets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.dispatched.Load() - before; got != 0 {
		t.Errorf("repeat batch dispatched %d targets, want 0 (L1)", got)
	}
	for i := range again {
		if *again[i].Lat != *results[i].Lat {
			t.Errorf("%s: cached repeat differs", again[i].Target)
		}
	}
}

// TestFrontDoorHTTP smoke-tests the cluster front door's wire surface
// over a real fleet: localize, batch NDJSON, stats, cluster view, and a
// no-op rollout.
func TestFrontDoorHTTP(t *testing.T) {
	fleet := startFleet(t, 2, 13)
	r, err := NewRouter(fleet.Clients(), RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(fleet.Clients())
	if err != nil {
		t.Fatal(err)
	}
	h := NewFront(r, coord).Handler()

	post := func(path string, body any) *httptest.ResponseRecorder {
		b, _ := json.Marshal(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		return rec
	}

	rec := post("/v2/localize", map[string]any{"target": fleet.Targets[0]})
	if rec.Code != http.StatusOK {
		t.Fatalf("localize: %d %s", rec.Code, rec.Body)
	}
	var tr serve.TargetResultV2
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Target != fleet.Targets[0] || tr.Lat == nil {
		t.Errorf("localize = %+v", tr)
	}

	if rec := post("/v2/localize", map[string]any{"target": "no.such.host"}); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unknown target through front door: %d, want 422", rec.Code)
	}
	if rec := post("/v2/localize", map[string]any{"target": fleet.Targets[0], "options": map[string]any{"disable": []string{"sonar"}}}); rec.Code != http.StatusBadRequest {
		t.Errorf("bad options through front door: %d, want 400", rec.Code)
	}

	rec = post("/v2/localize/batch", map[string]any{"targets": fleet.Targets[:3]})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("batch content type %q", ct)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var cs ClusterStats
	if err := json.Unmarshal(rec.Body.Bytes(), &cs); err != nil {
		t.Fatal(err)
	}
	if len(cs.Nodes) != 2 || cs.Router.Dispatched == 0 {
		t.Errorf("cluster stats = %+v", cs)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster", nil))
	var view clusterView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Nodes) != 2 || !view.Nodes[0].Ready {
		t.Errorf("cluster view = %+v", view)
	}

	// A skip-refresh rollout with an already-coherent fleet is a no-op
	// that still reports per-node state.
	rec = post("/v1/rollout", map[string]any{"skip_refresh": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("rollout: %d %s", rec.Code, rec.Body)
	}
	var report RolloutReport
	if err := json.Unmarshal(rec.Body.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.Refreshed || len(report.Nodes) != 1 || !report.Nodes[0].Skipped {
		t.Errorf("no-op rollout report = %+v", report)
	}
}

// TestOversizedBodyIs413: a localize body over the 1 MiB cap is refused
// with 413 before it is buffered, on a serving node and at the front door
// alike, single and batch.
func TestOversizedBodyIs413(t *testing.T) {
	fleet := startFleet(t, 1, 13)
	r, err := NewRouter(fleet.Clients(), RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(fleet.Clients())
	if err != nil {
		t.Fatal(err)
	}
	// A syntactically valid request whose target alone outgrows the cap,
	// so only the size check can refuse it.
	huge := strings.Repeat("x", 1<<20)
	for name, h := range map[string]http.Handler{
		"node":  fleet.Nodes[0].Server.Handler(),
		"front": NewFront(r, coord).Handler(),
	} {
		for path, body := range map[string]string{
			"/v2/localize":       `{"target":"` + huge + `"}`,
			"/v2/localize/batch": `{"targets":["` + huge + `"]}`,
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s: status %d, want 413 (%.80s)", name, path, rec.Code, rec.Body)
			}
		}
	}
}

// TestNodeAndFrontDoorRefuseTheSameBatches: a node and the front door run
// one options check (serve.WireOptions.Resolve) and then one target-list
// check (serve.CheckTargets), so every bad batch body gets the same
// status and text from both, on every call.
func TestNodeAndFrontDoorRefuseTheSameBatches(t *testing.T) {
	fleet := startFleet(t, 2, 13)
	r, err := NewRouter(fleet.Clients(), RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(fleet.Clients())
	if err != nil {
		t.Fatal(err)
	}
	over := make([]string, 1025) // one past the default MaxBatch of both
	for i := range over {
		over[i] = fleet.Targets[0]
	}
	badOptions := map[string]any{"disable": []string{"sonar"}}
	handlers := []http.Handler{fleet.Nodes[0].Server.Handler(), NewFront(r, coord).Handler()}
	for name, body := range map[string]map[string]any{
		"no targets":            {},
		"empty list":            {"targets": []string{}},
		"empty first":           {"targets": []string{"", "x"}},
		"empty last":            {"targets": []string{fleet.Targets[0], ""}},
		"over MaxBatch":         {"targets": over},
		"bad options and over":  {"targets": over, "options": badOptions},
		"bad options and empty": {"targets": []string{""}, "options": badOptions},
		// Three bad weights: refused for the first in name order, "bar".
		"bad weights": {"targets": []string{fleet.Targets[0]}, "options": map[string]any{"weights": map[string]float64{"foo": 1, "bar": 1, "geodb": -1}}},
	} {
		b, _ := json.Marshal(body)
		for range 20 {
			var recs [2]*httptest.ResponseRecorder
			for i, h := range handlers {
				recs[i] = httptest.NewRecorder()
				h.ServeHTTP(recs[i], httptest.NewRequest(http.MethodPost, "/v2/localize/batch", bytes.NewReader(b)))
			}
			node, front := recs[0], recs[1]
			if node.Code == http.StatusOK || node.Code != front.Code || node.Body.String() != front.Body.String() {
				t.Fatalf("%s: node %d %.80s, front door %d %.80s; want one refusal", name, node.Code, node.Body, front.Code, front.Body)
			}
		}
	}
}

// TestSnapshotReadIsCapped: a peer that streams one byte more than the
// 64 MiB /v1/survey/install accepts gets an error from NodeClient.Snapshot,
// not 64 MiB of truncated snapshot.
func TestSnapshotReadIsCapped(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Octant-Epoch", "7")
		chunk := bytes.Repeat([]byte{' '}, 1<<20)
		for left := serve.MaxSnapshotBody + 1; left > 0; left -= len(chunk) {
			if left < len(chunk) {
				chunk = chunk[:left]
			}
			if _, err := w.Write(chunk); err != nil {
				return // the client stopped reading at the cap
			}
		}
	}))
	defer srv.Close()
	data, _, err := (&NodeClient{Name: "peer", BaseURL: srv.URL}).Snapshot(context.Background())
	if err == nil || data != nil {
		t.Errorf("Snapshot over the cap returned %d bytes, err %v; want an error and no data", len(data), err)
	}
}

// TestNodeResponsesAreCapped: a node answering readyz, stats or a
// localization with valid JSON one byte over the 1 MiB response cap gets
// an error from its NodeClient, never a decoded (or truncated) answer.
func TestNodeResponsesAreCapped(t *testing.T) {
	head := `{"ready":true,"epoch":1,"target":"t","pad":"`
	body := head + strings.Repeat("x", maxResponseBody+1-len(head)-2) + `"}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, body)
	}))
	defer srv.Close()
	n := &NodeClient{Name: "big", BaseURL: srv.URL}
	ctx := context.Background()
	if rd, err := n.Ready(ctx); err == nil {
		t.Errorf("Ready over the cap = %+v, want an error", rd)
	}
	if st, err := n.Stats(ctx); err == nil {
		t.Errorf("Stats over the cap = %+v, want an error", st)
	}
	if _, err := n.LocalizeV2(ctx, "t", nil); err == nil {
		t.Error("LocalizeV2 over the cap decoded, want an error")
	}
}
