package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"octant/internal/core"
	"octant/internal/geo"
)

// TestOptionsQualifyTheCacheKey: a repeated default request is a cache
// hit, and an options-qualified request is not served from that entry.
func TestOptionsQualifyTheCacheKey(t *testing.T) {
	s := sharedStack(t)
	h := s.srv.Handler()
	tgt := s.targets[3]

	if rec := postJSON(t, h, "/v2/localize", map[string]string{"target": tgt}); rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	rec := postJSON(t, h, "/v2/localize", map[string]any{"target": tgt})
	var v2 TargetResultV2
	if err := json.Unmarshal(rec.Body.Bytes(), &v2); err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Error("repeated default request was not a cache hit")
	}

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

// decodeOracle is the decoder DecodeLocalize replaced, kept as its
// oracle: encoding/json refusing unknown fields, one Decode, over the
// same capped, deadlined, drained read and the same error answers.
func decodeOracle(w http.ResponseWriter, r *http.Request) (LocalizeRequest, bool) {
	var req LocalizeRequest
	err := readValue(w, r, maxRequestBody, func(body io.Reader) error {
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		return dec.Decode(&req)
	})
	if err != nil {
		writeBodyError(w, err, "bad request body")
		return req, false
	}
	return req, true
}

// FuzzDecodeV2: any body posted to a localize route goes through
// DecodeLocalize and WireOptions.Resolve. DecodeLocalize must agree with
// decodeOracle — accept the same bodies, decode them to the same request,
// and refuse the rest with the same 400 or 413, byte for byte. Options
// that pass carry in-range hints and resolve to the same Fingerprint
// every time. The hand path takes canonical bodies only, so most seeds
// below cover the hand-off to encoding/json.
func FuzzDecodeV2(f *testing.F) {
	for _, name := range []string{"testdata/v2_localize_request.json", "testdata/v2_batch_request.json"} {
		body, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"target":"` + string(bytes.Repeat([]byte("x"), maxRequestBody)) + `"}`))
	f.Add([]byte(`{"target":"a"}` + strings.Repeat(" ", maxRequestBody)))
	for _, body := range []string{
		`{"TARGET":"a"}`,
		"{\"target\u017f\":[\"a\"],\"option\u017f\":{\"explain\":true}}",                    // U+017F folds to s
		"{\"target\":\"a\",\"options\":{\"min_landmar\u212as\":2,\"fine_cell_\u212am\":5}}", // U+212A folds to k
		"{\"target\":\"a\xffb\",\"options\":{\"weights\":{\"\xfe\":1}}}",
		`{"target":"\ud800x\udc00\ud83d\ude00\ud83d"}`,
		`{"targets":["a","b","c"],"targets":["d"],"targets":[null,null,null]}`,
		`{"target":"a","options":{"weights":{"router":1},"hints":[{"lat":1,"label":"x"},{"lat":2}]},"options":{"weights":{"hint":2},"hints":[{"lon":3}]}}`,
		`{"target":"a","options":{"hints":[{"label":"x"},{"label":"y"},{"label":"z"}],"hints":[{"lat":1}],"hints":[{"lon":2},null,{}]}}`,
		`{"target":null,"targets":null,"options":{"disable":null,"weights":{"router":null},"min_area_km2":null,"fine_cell_km":null,"neg_height_percentile":null,"min_landmarks":null,"explain":null,"hints":[null,{"lat":null,"lon":null,"radius_km":null,"weight":null,"label":null}]}}`,
		`{"target":"a","options":null}`,
		`null`,
		`{"target":"a","options":{"min_area_km2":1e400}}`,
		`{"target":"a","options":{"min_landmarks":1.0}}`,
		`{"target":"a"} trailing bytes`,
		`{"target":"a"}{"target":"b"}`,
		`null x`,
		`nullx`,
		``,
		`   `,
		`{"target":"a"`,
		`[[[[[[]]]]]]`,
		// encoding/json's nesting limit is 10,000: at it, and one past it.
		`{"target":"a","x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"target":"a","x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/v2/localize", bytes.NewReader(body))
		}
		gotW, wantW := httptest.NewRecorder(), httptest.NewRecorder()
		req, ok := DecodeLocalize(gotW, post())
		want, wantOK := decodeOracle(wantW, post())
		if ok != wantOK || gotW.Code != wantW.Code || gotW.Body.String() != wantW.Body.String() {
			t.Fatalf("DecodeLocalize: %v, %d %q; encoding/json: %v, %d %q", ok, gotW.Code, gotW.Body, wantOK, wantW.Code, wantW.Body)
		}
		if !ok {
			if gotW.Code != http.StatusBadRequest && gotW.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused with %d", gotW.Code)
			}
			return
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("decoded %#v, encoding/json %#v", req, want)
		}
		if req.Options != nil && !reflect.DeepEqual(*req.Options, *want.Options) {
			t.Fatalf("options %#v, encoding/json %#v", *req.Options, *want.Options)
		}
		if len(body) > maxRequestBody {
			t.Fatalf("decoded a %d-byte body", len(body))
		}
		_, fp, err := req.Options.Resolve()
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
		if _, again, _ := req.Options.Resolve(); again != fp {
			t.Fatalf("one body, two fingerprints: %q, %q", fp, again)
		}
	})
}

// namedBody is a localize body with a name for test output.
type namedBody struct {
	name string
	body []byte
}

// canonicalBodies are the localize bodies this repository sends: the
// golden requests, what cluster.NodeClient marshals (LocalizeV2 and
// BatchV2 build a map of target or targets and options, so the keys come
// sorted and no options is "options":null), and the shapes
// benchmarks/octant-bench/keys.go builds, written out.
func canonicalBodies(t testing.TB) []namedBody {
	var out []namedBody
	for _, name := range []string{"v2_localize_request.json", "v2_batch_request.json"} {
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedBody{"golden/" + name, b})
	}
	weights := &WireOptions{Weights: map[string]float64{core.SourceGeoDB: 1 + 1.0/(1<<30)}}
	full := &WireOptions{
		Disable: []string{core.SourceRouter}, Weights: map[string]float64{core.SourceHint: 0.75, core.SourceLatency: 2},
		MinAreaKm2: 30000, FineCellKm: 5, NegHeightPercentile: 0.9, MinLandmarks: 3, Explain: true,
		Hints: []WireHint{{Lat: 42.4534, Lon: -76.4735, RadiusKm: 100, Weight: 0.6, Label: "registry"}, {Lat: -1e-7, Lon: 180}},
	}
	targets := []string{"planetlab1.csail.mit.edu", "planetlab2.cs.cornell.edu"}
	for _, c := range []struct {
		name string
		opts *WireOptions
	}{{"nil", nil}, {"weights", weights}, {"full", full}} {
		single, err := json.Marshal(map[string]any{"target": targets[0], "options": c.opts})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := json.Marshal(map[string]any{"targets": targets, "options": c.opts})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedBody{"client/single/" + c.name, single}, namedBody{"client/batch/" + c.name, batch})
	}
	out = append(out,
		namedBody{"bench/single", []byte(`{"target":"planetlab1.csail.mit.edu"}`)},
		namedBody{"bench/single/key", []byte(cacheHotBody)},
		namedBody{"bench/batch", []byte(`{"targets":["planetlab1.csail.mit.edu","planetlab2.cs.cornell.edu"]}`)},
		namedBody{"bench/batch/key", []byte(`{"targets":["planetlab1.csail.mit.edu","planetlab2.cs.cornell.edu"],"options":{"weights":{"geodb":1.0000000009313226}}}`)},
	)
	return out
}

// cacheHotBody is the body of a cache_hot request: one target under a
// weights key.
const cacheHotBody = `{"target":"planetlab1.csail.mit.edu","options":{"weights":{"geodb":1.0000000009313226}}}`

// TestCanonicalBodies: the repository's own localize traffic takes the
// hand path and decodes as encoding/json decodes it, and bodies outside
// the canonical form are left to encoding/json.
func TestCanonicalBodies(t *testing.T) {
	for _, c := range canonicalBodies(t) {
		got, ok := canonicalRequest(c.body)
		if !ok {
			t.Errorf("%s: not canonical: %s", c.name, c.body)
			continue
		}
		var want LocalizeRequest
		dec := json.NewDecoder(bytes.NewReader(c.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %#v, encoding/json %#v", c.name, got, want)
		}
	}
	for _, body := range []string{
		`{"TARGET":"a"}`,
		`{"target":"a","target":"b"}`,
		`{"target":"a","options":{"hints":[{"lat":1,"lat":2}]}}`,
		`{"target":"a","options":{"weights":{"geodb":1,"geodb":2}}}`,
		`{"target":"\u0061"}`,
		"{\"target\":\"\u00e9\"}",
		`{"target":null}`,
		`{"target":"a","options":{"hints":[null]}}`,
		`{"target":"a"} x`,
		`{"target":"a","options":{"min_landmarks":1.0}}`,
		`{"target":"a","options":{"min_area_km2":1e400}}`,
		`{"target":"a","options":{"fine_cell_km":01}}`,
		`null`,
	} {
		if _, ok := canonicalRequest([]byte(body)); ok {
			t.Errorf("%s: taken as canonical", body)
		}
	}
}

// rewindBody is a request body a test can replay without allocating.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// decodeBodies runs DecodeLocalize on each body, reusing one request.
func decodeBodies(tb testing.TB, bodies ...[]byte) func() {
	rd := bytes.NewReader(nil)
	r := httptest.NewRequest(http.MethodPost, "/v2/localize", nil)
	r.Body = rewindBody{rd}
	w := httptest.NewRecorder()
	return func() {
		for _, body := range bodies {
			rd.Reset(body)
			if _, ok := DecodeLocalize(w, r); !ok {
				tb.Fatalf("refused %s", body)
			}
		}
	}
}

// TestDecodeLocalizeAllocs pins a cache_hot decode, readBody included,
// at 8 allocations, with or without the race detector: nothing on the
// path draws from a sync.Pool, which the race runtime empties at random.
// Two of the 8 are the failed SetReadDeadline on the recorder, which has
// no connection to bound.
func TestDecodeLocalizeAllocs(t *testing.T) {
	n := testing.AllocsPerRun(1000, decodeBodies(t, []byte(cacheHotBody)))
	t.Logf("%v allocations per cache_hot decode", n)
	if n > 8 {
		t.Errorf("DecodeLocalize allocates %v times per cache_hot body, want <= 8", n)
	}
}

// BenchmarkDecodeLocalize: DecodeLocalize, readBody included, on each
// canonical body.
func BenchmarkDecodeLocalize(b *testing.B) {
	for _, c := range canonicalBodies(b) {
		b.Run(c.name, func(b *testing.B) {
			run := decodeBodies(b, c.body)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// FuzzAppendTargetResultV2: a generated result line from
// AppendTargetResultV2 is byte for byte what json.Encoder writes for the
// same value, and a value json.Encoder refuses (a NaN or an infinity) is
// refused with nothing appended. flags: 1 no point (nil lat/lon, empty
// region), 2 cached, 4 provenance, 8 degraded.
func FuzzAppendTargetResultV2(f *testing.F) {
	f.Add("planetlab1.csail.mit.edu", "", 42.36, -71.09, 31000.5, 0.0, 1.25, 17, uint8(0), uint64(0))
	f.Add("a<b>&c", "probe: unknown address <x>", 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20, -1e21, -3, uint8(15), uint64(1<<63))
	f.Add("line\u2028para\u2029", "ctl\x00\x01\x1f\x7f\b\f\n\r\t\"\\", 5e-324, math.Copysign(0, -1), 1e-7, 123456789e12, 0.1, 0, uint8(10), uint64(7))
	f.Add("bad\xffutf8\xc3", "\xed\xa0\x80 surrogate bytes", math.NaN(), 1.0, 1.0, 1.0, 1.0, 1, uint8(0), uint64(0))
	f.Add("inf", "", 1.0, math.Inf(1), 1.0, 1.0, 1.0, 1, uint8(4), uint64(0))
	f.Add("empty", "", 0.0, 0.0, math.Inf(-1), 0.0, 0.0, 0, uint8(3), uint64(0))
	f.Add("nan provenance", "", 1.0, 1.0, 1.0, 1.0, math.NaN(), 1, uint8(5), uint64(0))
	f.Fuzz(func(t *testing.T, target, errText string, lat, lon, area, height, elapsed float64, constraints int, flags uint8, epoch uint64) {
		tr := TargetResultV2{
			Target: target, AreaKm2: area, HeightMs: height, Constraints: constraints,
			EmptyRegion: flags&1 != 0, Cached: flags&2 != 0, Degraded: flags&8 != 0,
			ElapsedMs: elapsed, Error: errText, Epoch: epoch,
		}
		if flags&1 == 0 {
			tr.Lat, tr.Lon = &lat, &lon
		}
		if flags&4 != 0 {
			tr.Provenance = &core.Provenance{
				Sources:          []core.SourceReport{{Source: target, Constraints: constraints}},
				TotalConstraints: constraints,
				SolveMs:          elapsed,
				Failures:         []core.ProbeFailure{{Landmark: target, Reason: errText}},
			}
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(tr)
		prefix := []byte("prefix")
		got, err := AppendTargetResultV2(prefix, &tr)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error %v, json.Encoder %v", err, wantErr)
		}
		if err != nil {
			if string(got) != "prefix" {
				t.Fatalf("refused, yet appended %q", got[len(prefix):])
			}
			return
		}
		if !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("appended\n%q\njson.Encoder\n%q", got[len(prefix):], want.Bytes())
		}
	})
}
