package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"octant/internal/core"
	"octant/internal/geo"
)

// TestV2NoOptionsMatchesV1: an empty v2 request is exactly a v1 request
// plus the epoch field — same point, area, constraint count.
func TestV2NoOptionsMatchesV1(t *testing.T) {
	s := sharedStack(t)
	h := s.srv.Handler()
	tgt := s.targets[1]

	rec := postJSON(t, h, "/v2/localize", map[string]any{"target": tgt})
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var v2 TargetResultV2
	if err := json.Unmarshal(rec.Body.Bytes(), &v2); err != nil {
		t.Fatal(err)
	}
	want := s.seq[tgt]
	if v2.Lat == nil || *v2.Lat != want.Point.Lat || *v2.Lon != want.Point.Lon {
		t.Errorf("v2 point (%v,%v) != sequential %v", v2.Lat, v2.Lon, want.Point)
	}
	if v2.AreaKm2 != want.AreaKm2 || v2.Constraints != len(want.Constraints) {
		t.Errorf("v2 area/constraints %v/%d != %v/%d", v2.AreaKm2, v2.Constraints, want.AreaKm2, len(want.Constraints))
	}
	if v2.Provenance != nil {
		t.Error("no-options v2 response carries provenance")
	}
	if v2.Epoch != s.srv.Manager().Current().Number() {
		t.Errorf("epoch %d, want %d", v2.Epoch, s.srv.Manager().Current().Number())
	}
}

// TestV2OptionsApplied: explain returns per-source provenance; disabling
// the router source changes the constraint count.
func TestV2OptionsApplied(t *testing.T) {
	s := sharedStack(t)
	h := s.srv.Handler()
	tgt := s.targets[2]

	rec := postJSON(t, h, "/v2/localize", map[string]any{
		"target":  tgt,
		"options": map[string]any{"explain": true},
	})
	if rec.Code != 200 {
		t.Fatalf("explain status %d: %s", rec.Code, rec.Body)
	}
	var full TargetResultV2
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if full.Provenance == nil || len(full.Provenance.Sources) == 0 {
		t.Fatal("explain response has no provenance")
	}
	if full.Provenance.TotalConstraints != full.Constraints {
		t.Errorf("provenance total %d != constraints %d", full.Provenance.TotalConstraints, full.Constraints)
	}
	nRouter := 0
	for _, rep := range full.Provenance.Sources {
		if rep.Source == "router" {
			nRouter = rep.Constraints
		}
	}

	rec = postJSON(t, h, "/v2/localize", map[string]any{
		"target":  tgt,
		"options": map[string]any{"disable": []string{"router"}},
	})
	if rec.Code != 200 {
		t.Fatalf("disable status %d: %s", rec.Code, rec.Body)
	}
	var noRouter TargetResultV2
	if err := json.Unmarshal(rec.Body.Bytes(), &noRouter); err != nil {
		t.Fatal(err)
	}
	if nRouter > 0 && noRouter.Constraints != full.Constraints-nRouter {
		t.Errorf("router-disabled constraints %d, want %d", noRouter.Constraints, full.Constraints-nRouter)
	}
}

// TestV2Validation: malformed options must 400 with a useful message.
func TestV2Validation(t *testing.T) {
	s := sharedStack(t)
	h := s.srv.Handler()
	tgt := s.targets[0]

	cases := []map[string]any{
		{"target": tgt, "options": map[string]any{"disable": []string{"sonar"}}},
		{"target": tgt, "options": map[string]any{"weights": map[string]float64{"router": -1}}},
		{"target": tgt, "options": map[string]any{"weights": map[string]float64{"sonar": 1}}},
		{"target": tgt, "options": map[string]any{"min_area_km2": -5}},
		{"target": tgt, "options": map[string]any{"neg_height_percentile": 150}},
		{"target": tgt, "options": map[string]any{"hints": []map[string]any{{"lat": 200, "lon": 0}}}},
		// One circumference and 10 km: a disk drawn from this radius is a
		// 10 km disk.
		{"target": tgt, "options": map[string]any{"hints": []map[string]any{{"lat": 42, "lon": -76, "radius_km": 40040}}}},
		{"options": map[string]any{}},
		// Misspelled option keys must 400 (DisallowUnknownFields), not
		// silently run — and cache — the request under server defaults.
		{"target": tgt, "options": map[string]any{"weight": map[string]float64{"router": 0.5}}},
		{"target": tgt, "options": map[string]any{"min_area_km": 1000}},
	}
	for i, body := range cases {
		if rec := postJSON(t, h, "/v2/localize", body); rec.Code != 400 {
			t.Errorf("case %d: status %d, want 400 (%s)", i, rec.Code, rec.Body)
		}
	}
}

// TestV2BatchStream: batch options apply to every line of the stream.
func TestV2BatchStream(t *testing.T) {
	s := sharedStack(t)
	h := s.srv.Handler()
	targets := s.targets[:4]

	rec := postJSON(t, h, "/v2/localize/batch", map[string]any{
		"targets": targets,
		"options": map[string]any{"explain": true},
	})
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	seen := 0
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var tr TargetResultV2
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if tr.Error != "" {
			t.Fatalf("%s: %s", tr.Target, tr.Error)
		}
		if tr.Provenance == nil || len(tr.Provenance.Sources) == 0 {
			t.Errorf("%s: batch explain line has no provenance", tr.Target)
		}
		seen++
	}
	if seen != len(targets) {
		t.Errorf("streamed %d lines, want %d", seen, len(targets))
	}

	// Hints flow through the batch body too: an oracle hint at the
	// true location must add one constraint per target.
	var base TargetResultV2
	rec = postJSON(t, h, "/v2/localize", map[string]any{"target": targets[0]})
	if err := json.Unmarshal(rec.Body.Bytes(), &base); err != nil {
		t.Fatal(err)
	}
	node, ok := s.world.HostByName(targets[0])
	if !ok {
		t.Fatalf("no such host %s", targets[0])
	}
	rec = postJSON(t, h, "/v2/localize/batch", map[string]any{
		"targets": targets[:1],
		"options": map[string]any{
			"hints": []map[string]any{{"lat": node.Loc.Lat, "lon": node.Loc.Lon, "label": "oracle"}},
		},
	})
	sc = bufio.NewScanner(rec.Body)
	if !sc.Scan() {
		t.Fatal("no batch line")
	}
	var hinted TargetResultV2
	if err := json.Unmarshal(sc.Bytes(), &hinted); err != nil {
		t.Fatal(err)
	}
	if hinted.Constraints != base.Constraints+1 {
		t.Errorf("hinted constraints %d, want %d", hinted.Constraints, base.Constraints+1)
	}
}

// TestV1CacheSharedWithDefaultV2: the v1 adapter and a default-options
// v2 request are the same request — the second must be a cache hit of
// the first.
func TestV1CacheSharedWithDefaultV2(t *testing.T) {
	s := sharedStack(t)
	h := s.srv.Handler()
	tgt := s.targets[3]

	if rec := postJSON(t, h, "/v1/localize", map[string]string{"target": tgt}); rec.Code != 200 {
		t.Fatalf("v1 status %d", rec.Code)
	}
	rec := postJSON(t, h, "/v2/localize", map[string]any{"target": tgt})
	var v2 TargetResultV2
	if err := json.Unmarshal(rec.Body.Bytes(), &v2); err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Error("default v2 request after v1 request was not a cache hit")
	}

	// An options-qualified v2 request must NOT be served from that entry.
	rec = postJSON(t, h, "/v2/localize", map[string]any{
		"target":  tgt,
		"options": map[string]any{"disable": []string{"router"}},
	})
	var tuned TargetResultV2
	if err := json.Unmarshal(rec.Body.Bytes(), &tuned); err != nil {
		t.Fatal(err)
	}
	if tuned.Cached {
		t.Error("options-qualified request hit the default cache entry")
	}
}

// FuzzDecodeV2: any body posted to a /v2 localize route goes through
// DecodeJSON (strict) and WireOptions.Options and either passes, or is
// answered 400, or 413 when it outgrows the cap — nothing else. Options
// that pass carry in-range hints and resolve to the same Fingerprint
// every time.
func FuzzDecodeV2(f *testing.F) {
	for _, name := range []string{"testdata/v2_localize_request.json", "testdata/v2_batch_request.json"} {
		body, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"target":"` + string(bytes.Repeat([]byte("x"), maxRequestBody)) + `"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		var req localizeRequest
		if !DecodeJSON(w, httptest.NewRequest(http.MethodPost, "/v2/localize", bytes.NewReader(body)), true, &req) {
			if w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused with %d", w.Code)
			}
			return
		}
		if len(body) > maxRequestBody {
			t.Fatalf("decoded a %d-byte body", len(body))
		}
		opts, err := req.Options.Options()
		if err != nil {
			return // the handler's 400
		}
		if req.Options != nil {
			for i, h := range req.Options.Hints {
				if !geo.Pt(h.Lat, h.Lon).Valid() || !(h.RadiusKm >= 0 && h.RadiusKm <= math.Pi*geo.EarthRadiusKm) || !(h.Weight >= 0) {
					t.Fatalf("accepted hint %d: %+v", i, h)
				}
			}
		}
		again, _ := req.Options.Options()
		a, b := core.NewLocalizeOptions(opts...), core.NewLocalizeOptions(again...)
		if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
			t.Fatalf("one body, two fingerprints: %q, %q", fa, fb)
		}
	})
}
