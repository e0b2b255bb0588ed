package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/lifecycle"
	"octant/internal/netsim"
	"octant/internal/probe"
)

// testServer builds a serve stack over the simulated world with the first
// 32 hosts held out as targets, mirroring what octant-serve wires up.
type testStack struct {
	srv     *Server
	world   *netsim.World
	targets []string
	seq     map[string]*core.Result // sequential ground truth per target
}

var (
	stackOnce sync.Once
	stack     testStack
	stackErr  error
)

// buildStack wires a full serve stack (prober → survey → lifecycle →
// engine → server) over a fresh simulated world.
func buildStack(seed uint64, holdout int) (testStack, error) {
	prober, landmarks, err := BuildProber("sim", seed, holdout, "")
	if err != nil {
		return testStack{}, err
	}
	world := prober.(*probe.SimProber).World
	targets := make([]string, 0, holdout)
	for _, h := range world.HostNodes()[:holdout] {
		targets = append(targets, h.Name)
	}
	survey, err := core.NewSurvey(prober, landmarks, core.SurveyOpts{UseHeights: true})
	if err != nil {
		return testStack{}, err
	}
	manager := lifecycle.New(prober, survey, core.Config{}, lifecycle.Options{})
	seq := make(map[string]*core.Result, len(targets))
	loc := manager.CurrentLocalizer()
	for _, tgt := range targets {
		res, err := loc.LocalizeContext(context.Background(), tgt)
		if err != nil {
			return testStack{}, err
		}
		seq[tgt] = res
	}
	engine := batch.NewWithProvider(manager, batch.Options{Workers: 8})
	srv := New(engine, manager, Options{MaxBatch: 256})
	return testStack{srv: srv, world: world, targets: targets, seq: seq}, nil
}

func sharedStack(t *testing.T) testStack {
	t.Helper()
	stackOnce.Do(func() { stack, stackErr = buildStack(3, 32) })
	if stackErr != nil {
		t.Fatal(stackErr)
	}
	return stack
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestBatchEndpointEndToEnd drives POST /v2/localize/batch with all 32
// held-out targets and checks every NDJSON line against the sequential
// Localize ground truth.
func TestBatchEndpointEndToEnd(t *testing.T) {
	s := sharedStack(t)
	h := s.srv.Handler()

	rec := postJSON(t, h, "/v2/localize/batch", map[string]any{"targets": s.targets})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	seen := make(map[string]bool)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var tr TargetResultV2
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if tr.Error != "" {
			t.Fatalf("%s: %s", tr.Target, tr.Error)
		}
		want, ok := s.seq[tr.Target]
		if !ok {
			t.Fatalf("unrequested target %q in response", tr.Target)
		}
		if seen[tr.Target] {
			t.Fatalf("target %q answered twice", tr.Target)
		}
		seen[tr.Target] = true
		if tr.Lat == nil || tr.Lon == nil {
			t.Fatalf("%s: missing point", tr.Target)
		}
		if *tr.Lat != want.Point.Lat || *tr.Lon != want.Point.Lon {
			t.Errorf("%s: served (%v,%v) != sequential %v", tr.Target, *tr.Lat, *tr.Lon, want.Point)
		}
		if tr.AreaKm2 != want.AreaKm2 {
			t.Errorf("%s: area %v != %v", tr.Target, tr.AreaKm2, want.AreaKm2)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(s.targets) {
		t.Errorf("answered %d of %d targets", len(seen), len(s.targets))
	}
}

// TestBatchStreamsBeforeLastTarget pins the batch route's streaming: a
// gated prober holds the last target's pings until the client has read
// one NDJSON line over a real connection. A node that held its lines
// until the batch ended would never send that line, and the test fails
// on its deadline.
func TestBatchStreamsBeforeLastTarget(t *testing.T) {
	prober, landmarks, err := BuildProber("sim", 5, 45, "")
	if err != nil {
		t.Fatal(err)
	}
	survey, err := core.NewSurvey(prober, landmarks, core.SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, h := range prober.(*probe.SimProber).World.HostNodes()[:4] {
		targets = append(targets, h.Name)
	}
	last := targets[len(targets)-1]
	gated := gateProber{Prober: prober, dst: last, gate: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(gated.gate) }) }
	manager := lifecycle.New(gated, survey, core.Config{}, lifecycle.Options{})
	engine := batch.NewWithProvider(manager, batch.Options{Workers: 2})
	ts := httptest.NewServer(New(engine, manager, Options{}).Handler())
	defer ts.Close()
	defer release() // before Close, which waits for the handler

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	body, _ := json.Marshal(map[string]any{"targets": targets})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v2/localize/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("no line while %s's pings were held: %v", last, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	seen := map[string]bool{}
	for sc.Scan() {
		var tr TargetResultV2
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil || tr.Error != "" {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if len(seen) == 0 && tr.Target == last {
			t.Fatalf("first line is %s, whose pings were held", last)
		}
		seen[tr.Target] = true
		release()
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("no line while %s's pings were held: %v", last, err)
	}
	if len(seen) != len(targets) {
		t.Errorf("answered %d of %d targets", len(seen), len(targets))
	}
}

// TestSingleLocalizeAndCacheFlag: repeats of one /v2/localize answer the
// ground truth, and every call after the first is a cache hit. The first
// call primes the cache (or hits what an earlier test left), so the test
// holds in any order.
func TestSingleLocalizeAndCacheFlag(t *testing.T) {
	s := sharedStack(t)
	h := s.srv.Handler()
	tgt := s.targets[0]

	var trs [3]TargetResultV2
	for i := range trs {
		rec := postJSON(t, h, "/v2/localize", map[string]string{"target": tgt})
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &trs[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := s.seq[tgt]
	for i, tr := range trs {
		if tr.Lat == nil || *tr.Lat != want.Point.Lat {
			t.Errorf("call %d: wrong point", i)
		}
	}
	if !trs[1].Cached || !trs[2].Cached {
		t.Errorf("expected cached repeats, got %v / %v", trs[1].Cached, trs[2].Cached)
	}
}

func TestValidationErrors(t *testing.T) {
	s := sharedStack(t)
	h := s.srv.Handler()

	if rec := postJSON(t, h, "/v2/localize", map[string]string{}); rec.Code != http.StatusBadRequest {
		t.Errorf("missing target: status %d", rec.Code)
	}
	if rec := postJSON(t, h, "/v2/localize", map[string]string{"target": "no.such.host"}); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unknown target: status %d", rec.Code)
	}
	if rec := postJSON(t, h, "/v2/localize/batch", map[string]any{"targets": []string{}}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", rec.Code)
	}
	big := make([]string, 257)
	for i := range big {
		big[i] = "x"
	}
	if rec := postJSON(t, h, "/v2/localize/batch", map[string]any{"targets": big}); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d", rec.Code)
	}
	// The node serves /v2 only.
	for _, path := range []string{"/v1/localize", "/v1/localize/batch"} {
		if rec := postJSON(t, h, path, map[string]string{"target": s.targets[0]}); rec.Code != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v2/localize", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET localize: status %d", rec.Code)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s := sharedStack(t)
	h := s.srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var hz struct {
		Status    string `json:"status"`
		Landmarks int    `json:"landmarks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Landmarks != s.srv.Manager().Current().Survey.N() {
		t.Errorf("healthz = %+v", hz)
	}

	// A multi-target batch through the HTTP surface is one fused group;
	// /v1/stats must report it.
	if rec := postJSON(t, h, "/v2/localize/batch", map[string]any{"targets": s.targets[:2]}); rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st batch.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 {
		t.Error("stats report zero requests after traffic")
	}
	if st.FusedGroups == 0 || st.FusedTargets < 2 {
		t.Errorf("stats report no fused traffic after a batch (%d groups, %d targets)",
			st.FusedGroups, st.FusedTargets)
	}
	if st.Workers != 8 {
		t.Errorf("workers = %d, want 8", st.Workers)
	}
	if st.CacheHits+st.CacheMisses > 0 && st.CacheHitRatio == 0 && st.CacheHits > 0 {
		t.Error("cache_hit_ratio not derived from hits/misses")
	}
	if st.LandMasks.Misses == 0 {
		t.Error("stats report no land-mask masters built after localizations")
	}
	if st.LandMasks.Hits == 0 {
		t.Error("stats report no land-mask reuse across localizations")
	}
	if st.Solver.Passes == 0 || st.Solver.CensusUnderflows != 0 {
		t.Errorf("solver block %+v: want passes counted and no census underflow", st.Solver)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"solver":{"passes":`)) {
		t.Errorf("/v1/stats carries no solver block: %s", rec.Body.Bytes())
	}
}

// TestReadyzLifecycle verifies readiness flips with draining while
// liveness stays green.
func TestReadyzLifecycle(t *testing.T) {
	s, err := buildStack(17, 40)
	if err != nil {
		t.Fatal(err)
	}
	h := s.srv.Handler()

	get := func(path string) (*httptest.ResponseRecorder, Readiness) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var rd Readiness
		_ = json.Unmarshal(rec.Body.Bytes(), &rd)
		return rec, rd
	}

	rec, rd := get("/v1/readyz")
	if rec.Code != http.StatusOK || !rd.Ready {
		t.Fatalf("fresh node not ready: %d %+v", rec.Code, rd)
	}

	s.srv.SetDraining(true)
	rec, rd = get("/v1/readyz")
	if rec.Code != http.StatusServiceUnavailable || rd.Ready || rd.Reason != "draining" {
		t.Errorf("draining node still ready: %d %+v", rec.Code, rd)
	}
	// Liveness must stay green while draining: the process is healthy, it
	// just should not receive new routed work.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz failed while draining: %d", rec.Code)
	}
	s.srv.SetDraining(false)
	rec, rd = get("/v1/readyz")
	if rec.Code != http.StatusOK || !rd.Ready {
		t.Errorf("node not ready after drain cleared: %d %+v", rec.Code, rd)
	}
}

// TestPprofGating verifies /debug/pprof/ is served only behind the -pprof
// flag.
func TestPprofGating(t *testing.T) {
	s := sharedStack(t)

	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof disabled: status %d, want 404", rec.Code)
	}

	enabled := New(s.srv.Engine(), s.srv.Manager(), Options{MaxBatch: 256, Pprof: true})
	rec = httptest.NewRecorder()
	enabled.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof enabled: status %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	enabled.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof cmdline: status %d, want 200", rec.Code)
	}
}

func TestLoadLandmarksParsing(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/lm.csv"
	csv := strings.Join([]string{
		"# comment",
		"host-a:80, Site A, 42.44, -76.50",
		"host-b:80, Site B, 40.71, -74.01",
		"host-c:80, Site C, 37.77, -122.42",
		"",
	}, "\n")
	if err := writeFile(path, csv); err != nil {
		t.Fatal(err)
	}
	lms, err := LoadLandmarks(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lms) != 3 || lms[0].Addr != "host-a:80" || lms[2].Loc.Lon != -122.42 {
		t.Errorf("parsed %+v", lms)
	}
	if err := writeFile(path, "one,two,three\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLandmarks(path); err == nil {
		t.Error("malformed line should error")
	}
	dupName := "a:80, Site X, 1, 2\nb:80, Site X, 3, 4\nc:80, Site Z, 5, 6\n"
	if err := writeFile(path, dupName); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLandmarks(path); err == nil {
		t.Error("duplicate landmark name should error (names address scoped refreshes)")
	}
	dupAddr := "a:80, Site X, 1, 2\na:80, Site Y, 3, 4\nc:80, Site Z, 5, 6\n"
	if err := writeFile(path, dupAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLandmarks(path); err == nil {
		t.Error("duplicate landmark address should error")
	}
}

// writeFile is a tiny helper so the parsing test reads naturally.
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestSurveyRefreshEndpoints drives the admin surface on its own stack
// (epoch swaps would invalidate the shared stack's ground truth): a
// refresh with no drift publishes nothing, a refresh after injected RTT
// drift hot-swaps epoch 1 under the same engine, and /v1/survey +
// /v1/stats report the progression.
func TestSurveyRefreshEndpoints(t *testing.T) {
	s, err := buildStack(11, 40)
	if err != nil {
		t.Fatal(err)
	}
	h := s.srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/survey", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("survey status %d: %s", rec.Code, rec.Body)
	}
	var sv lifecycle.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &sv); err != nil {
		t.Fatal(err)
	}
	if sv.Epoch != 0 || sv.Landmarks == 0 {
		t.Errorf("initial survey view = %+v", sv)
	}

	// Stable world: refresh must not publish.
	rec = postJSON(t, h, "/v1/survey/refresh", map[string]any{})
	if rec.Code != http.StatusOK {
		t.Fatalf("refresh status %d: %s", rec.Code, rec.Body)
	}
	var rep lifecycle.RefreshReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Swapped || rep.Epoch != 0 {
		t.Errorf("no-drift refresh = %+v", rep)
	}

	// Drift one landmark pair beyond tolerance and refresh again.
	survey := s.srv.Manager().Current().Survey
	a, _ := s.world.HostByName(survey.Landmarks[0].Addr)
	b, _ := s.world.HostByName(survey.Landmarks[1].Addr)
	s.world.SetPairDriftMs(a.ID, b.ID, 25)
	rec = postJSON(t, h, "/v1/survey/refresh", map[string]any{})
	if rec.Code != http.StatusOK {
		t.Fatalf("refresh status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped || rep.Epoch != 1 || len(rep.DirtyLandmarks) != 2 {
		t.Errorf("drift refresh = %+v", rep)
	}

	// Unknown landmark names in a scoped refresh are rejected.
	if rec := postJSON(t, h, "/v1/survey/refresh", map[string]any{"landmarks": []string{"no-such"}}); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown landmark: status %d", rec.Code)
	}

	// The engine serves the new epoch.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st batch.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 {
		t.Errorf("engine epoch = %d, want 1", st.Epoch)
	}
}

// TestSnapshotInstall drives the cluster coordination surface on one node
// pair: pull a snapshot from a source stack that has advanced an epoch,
// install it on a second stack, and verify the replica serves the pushed
// epoch at once without having probed for it.
func TestSnapshotInstall(t *testing.T) {
	src, err := buildStack(19, 40)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := buildStack(19, 40)
	if err != nil {
		t.Fatal(err)
	}
	hs, hd := src.srv.Handler(), dst.srv.Handler()

	// Advance the source to epoch 1 via injected drift.
	survey := src.srv.Manager().Current().Survey
	a, _ := src.world.HostByName(survey.Landmarks[0].Addr)
	b, _ := src.world.HostByName(survey.Landmarks[1].Addr)
	src.world.SetPairDriftMs(a.ID, b.ID, 25)
	if rec := postJSON(t, hs, "/v1/survey/refresh", map[string]any{}); rec.Code != http.StatusOK {
		t.Fatalf("refresh: %d %s", rec.Code, rec.Body)
	}

	// Pull the snapshot.
	rec := httptest.NewRecorder()
	hs.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/survey/snapshot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Octant-Epoch"); got != "1" {
		t.Errorf("snapshot epoch header = %q, want 1", got)
	}
	snap := rec.Body.Bytes()

	// Install on the replica: validated and published in one step.
	before := dst.world.PingCalls()
	rec = httptest.NewRecorder()
	hd.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/survey/install", bytes.NewReader(snap)))
	if rec.Code != http.StatusOK {
		t.Fatalf("install: %d %s", rec.Code, rec.Body)
	}
	var inst struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &inst); err != nil {
		t.Fatal(err)
	}
	if inst.Epoch != 1 {
		t.Errorf("installed epoch %d, want 1", inst.Epoch)
	}
	if got := dst.world.PingCalls() - before; got != 0 {
		t.Errorf("install issued %d probes, want 0 (probe-free rollout)", got)
	}
	rec = httptest.NewRecorder()
	hd.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
	var rd Readiness
	if err := json.Unmarshal(rec.Body.Bytes(), &rd); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !rd.Ready || rd.Epoch != 1 {
		t.Errorf("replica readyz after install: %d %+v, want ready at epoch 1", rec.Code, rd)
	}
	rec = httptest.NewRecorder()
	hd.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st batch.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 {
		t.Errorf("replica engine epoch %d, want 1", st.Epoch)
	}

	// Re-installing the now-serving epoch is a conflict (epoch must advance).
	rec = httptest.NewRecorder()
	hd.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/survey/install", bytes.NewReader(snap)))
	if rec.Code != http.StatusConflict {
		t.Errorf("stale install: %d, want 409", rec.Code)
	}
	// There is no second step.
	if rec := postJSON(t, hd, "/v1/survey/activate", map[string]any{}); rec.Code != http.StatusNotFound {
		t.Errorf("/v1/survey/activate: %d, want 404", rec.Code)
	}
}

// TestInstallWhileInFlight: an install lands while a localization is
// measuring. The node never reports itself unready, the in-flight request
// finishes on the epoch it borrowed, and the next request answers at the
// installed one.
func TestInstallWhileInFlight(t *testing.T) {
	prober, landmarks, err := BuildProber("sim", 5, 45, "")
	if err != nil {
		t.Fatal(err)
	}
	survey, err := core.NewSurvey(prober, landmarks, core.SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	next, err := survey.Refit(survey.RTT, survey.Epoch+1)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := next.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	manager := lifecycle.New(delayProber{Prober: prober, d: 100 * time.Millisecond}, survey, core.Config{}, lifecycle.Options{})
	engine := batch.NewWithProvider(manager, batch.Options{Workers: 2})
	srv := New(engine, manager, Options{})
	h := srv.Handler()
	hosts := prober.(*probe.SimProber).World.HostNodes()

	localize := func(target string) TargetResultV2 {
		rec := postJSON(t, h, "/v2/localize", map[string]string{"target": target})
		var tr TargetResultV2
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &tr) != nil {
			t.Errorf("localize %s: %d %s", target, rec.Code, rec.Body)
		}
		return tr
	}
	inflight := make(chan TargetResultV2, 1)
	go func() { inflight <- localize(hosts[0].Name) }()
	for engine.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Poll readiness for as long as the install takes.
	installed := make(chan struct{})
	polls := make(chan []int, 1)
	go func() {
		var codes []int
		for {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/readyz", nil))
			codes = append(codes, rec.Code)
			select {
			case <-installed:
				polls <- codes
				return
			default:
			}
		}
	}()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/survey/install", &snap))
	close(installed)
	if rec.Code != http.StatusOK {
		t.Fatalf("install: %d %s", rec.Code, rec.Body)
	}
	if engine.InFlight() == 0 {
		t.Fatal("the localization finished before the install landed; nothing was in flight")
	}
	for i, code := range <-polls {
		if code != http.StatusOK {
			t.Errorf("readyz poll %d during install: %d, want 200", i, code)
		}
	}

	if tr := <-inflight; tr.Epoch != 0 {
		t.Errorf("in-flight request answered at epoch %d, want 0 (the epoch it borrowed)", tr.Epoch)
	}
	if tr := localize(hosts[1].Name); tr.Epoch != 1 {
		t.Errorf("request after the install answered at epoch %d, want 1", tr.Epoch)
	}
}

// TestCacheLookupEndpoint verifies the peer-cache surface: a result this
// node computed is served by key, a cold key 404s, and lookups never
// trigger measurements.
func TestCacheLookupEndpoint(t *testing.T) {
	s, err := buildStack(23, 40)
	if err != nil {
		t.Fatal(err)
	}
	h := s.srv.Handler()
	tgt := s.world.HostNodes()[0].Name

	// Warm the cache through the normal path.
	if rec := postJSON(t, h, "/v2/localize", map[string]string{"target": tgt}); rec.Code != http.StatusOK {
		t.Fatalf("localize: %d %s", rec.Code, rec.Body)
	}
	before := s.world.PingCalls()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cache/lookup?target="+tgt+"&epoch=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("warm lookup: %d %s", rec.Code, rec.Body)
	}
	var tr TargetResultV2
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Target != tgt || !tr.Cached || tr.Lat == nil {
		t.Errorf("lookup = %+v", tr)
	}
	if tr.Epoch != 0 {
		t.Errorf("lookup epoch = %d, want 0", tr.Epoch)
	}

	// Cold key: miss, no side effects.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cache/lookup?target="+s.world.HostNodes()[1].Name+"&epoch=0", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("cold lookup: %d, want 404", rec.Code)
	}
	// Wrong epoch: miss.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cache/lookup?target="+tgt+"&epoch=7", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("future-epoch lookup: %d, want 404", rec.Code)
	}
	if got := s.world.PingCalls() - before; got != 0 {
		t.Errorf("cache lookups issued %d probes, want 0", got)
	}
}

// TestWarmStartSkipsProbing is the daemon-level acceptance check for
// -survey-snapshot: with a snapshot on disk, startup issues zero
// landmark probes and serves the persisted epoch.
func TestWarmStartSkipsProbing(t *testing.T) {
	prober, landmarks, err := BuildProber("sim", 13, 45, "")
	if err != nil {
		t.Fatal(err)
	}
	world := prober.(*probe.SimProber).World
	path := t.TempDir() + "/survey.json"

	// Cold path: no file yet → probes the mesh and seeds the snapshot.
	cold, err := LoadOrProbeSurvey(prober, landmarks, 10, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cold start did not seed the snapshot: %v", err)
	}

	before := world.PingCalls()
	warm, err := LoadOrProbeSurvey(prober, landmarks, 10, path)
	if err != nil {
		t.Fatal(err)
	}
	if got := world.PingCalls() - before; got != 0 {
		t.Errorf("warm start issued %d landmark probes, want 0", got)
	}
	if warm.N() != cold.N() || warm.Epoch != cold.Epoch || warm.Kappa != cold.Kappa {
		t.Errorf("warm survey differs: n %d/%d κ %v/%v", warm.N(), cold.N(), warm.Kappa, cold.Kappa)
	}
	// A corrupt snapshot must fail loudly, not silently reprobe.
	if err := writeFile(path, "{"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOrProbeSurvey(prober, landmarks, 10, path); err == nil {
		t.Error("corrupt snapshot silently ignored")
	}
	// A snapshot for another mesh or probe count is refused too:
	// TestInstallAndWarmStartRefuseTheSameMeshes.
}

// TestInstallAndWarmStartRefuseTheSameMeshes: the two doors a survey from
// outside comes in by — a coordinator's push (Manager.Install) and a
// snapshot file at startup (LoadOrProbeSurvey) — ask one question
// (Survey.SameMesh), so each of the five ways a mesh can differ is
// refused at both, and the matching mesh is let in at both. Each case
// pushes to a fresh manager, so a refusal is for its own mesh and never
// for an epoch an earlier case published.
func TestInstallAndWarmStartRefuseTheSameMeshes(t *testing.T) {
	prober, landmarks, err := BuildProber("sim", 13, 45, "")
	if err != nil {
		t.Fatal(err)
	}
	world := prober.(*probe.SimProber).World
	path := t.TempDir() + "/survey.json"
	base, err := LoadOrProbeSurvey(prober, landmarks, 10, path)
	if err != nil {
		t.Fatal(err)
	}

	edit := func(f func(lms []core.Landmark)) []core.Landmark {
		lms := append([]core.Landmark(nil), landmarks...)
		f(lms)
		return lms
	}
	cases := []struct {
		name      string
		landmarks []core.Landmark
		probes    int
		refused   bool
	}{
		{"same mesh", landmarks, 10, false},
		{"count", landmarks[1:], 10, true},
		{"order", edit(func(l []core.Landmark) { l[0], l[1] = l[1], l[0] }), 10, true},
		{"name", edit(func(l []core.Landmark) { l[2].Name = "someone-else" }), 10, true},
		{"position", edit(func(l []core.Landmark) { l[3].Loc.Lat += 0.01 }), 10, true},
		{"probe count", landmarks, 30, true},
	}
	for _, tc := range cases {
		// The pushed survey: the serving one's measurements, next epoch,
		// claiming the case's mesh.
		manager := lifecycle.New(prober, base, core.Config{}, lifecycle.Options{})
		pushed := *base
		pushed.Epoch, pushed.Landmarks, pushed.Probes = base.Epoch+1, tc.landmarks, tc.probes
		if _, err := manager.Install(&pushed); (err != nil) != tc.refused {
			t.Errorf("%s: Install error = %v, want refused = %v", tc.name, err, tc.refused)
		} else if err != nil && !strings.Contains(err.Error(), "does not match") {
			t.Errorf("%s: Install refused for %v, want a mesh mismatch", tc.name, err)
		}
		// The warm start: the serving survey's file, a configuration
		// claiming the case's mesh. A refusal must not reprobe either.
		before := world.PingCalls()
		if _, err := LoadOrProbeSurvey(prober, tc.landmarks, tc.probes, path); (err != nil) != tc.refused {
			t.Errorf("%s: LoadOrProbeSurvey error = %v, want refused = %v", tc.name, err, tc.refused)
		}
		if got := world.PingCalls() - before; got != 0 {
			t.Errorf("%s: warm start issued %d probes, want 0", tc.name, got)
		}
	}
}

// delayProber slows Ping so a localization is reliably in flight when
// shutdown starts or an install lands.
type delayProber struct {
	probe.Prober
	d time.Duration
}

func (p delayProber) Ping(src, dst string, n int) ([]float64, error) {
	time.Sleep(p.d)
	return p.Prober.Ping(src, dst, n)
}

// gateProber holds every Ping to dst until gate is closed.
type gateProber struct {
	probe.Prober
	dst  string
	gate chan struct{}
}

func (p gateProber) Ping(src, dst string, n int) ([]float64, error) {
	if dst == p.dst {
		<-p.gate
	}
	return p.Prober.Ping(src, dst, n)
}

// TestGracefulShutdownDrains starts a real listener, gets a localization
// in flight, triggers shutdown, and requires the in-flight request to
// complete successfully while new connections are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	prober, landmarks, err := BuildProber("sim", 5, 45, "")
	if err != nil {
		t.Fatal(err)
	}
	survey, err := core.NewSurvey(prober, landmarks, core.SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	slow := delayProber{Prober: prober, d: 4 * time.Millisecond}
	manager := lifecycle.New(slow, survey, core.Config{}, lifecycle.Options{})
	engine := batch.NewWithProvider(manager, batch.Options{Workers: 2})
	srv := New(engine, manager, Options{MaxBatch: 16})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- ServeUntilShutdown(ctx, &http.Server{Handler: srv.Handler()}, ln, 10*time.Second)
	}()

	target := prober.(*probe.SimProber).World.HostNodes()[0].Name
	url := fmt.Sprintf("http://%s/v2/localize", ln.Addr())
	resc := make(chan error, 1)
	go func() {
		resp, err := http.Post(url, "application/json",
			strings.NewReader(fmt.Sprintf(`{"target": %q}`, target)))
		if err != nil {
			resc <- err
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			resc <- fmt.Errorf("in-flight request: status %d: %s", resp.StatusCode, body)
			return
		}
		resc <- nil
	}()

	// Let the request get measuring (≥ 3 landmarks × 4 ms each), then
	// pull the plug.
	time.Sleep(20 * time.Millisecond)
	cancel()

	if err := <-resc; err != nil {
		t.Errorf("in-flight request not drained: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serveUntilShutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveUntilShutdown did not return")
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/v1/healthz", ln.Addr())); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}
