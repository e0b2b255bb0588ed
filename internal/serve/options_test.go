package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"octant/internal/core"
	"octant/internal/geo"
)

// optionsOracle is how wire options used to become request options: a
// closure per knob, resolved by core.NewLocalizeOptions, with the weights
// checked in name order (the map walk used to pick the 400 text at
// random). Resolve must agree with it on every input.
func optionsOracle(wo *WireOptions) ([]core.LocalizeOption, error) {
	if wo == nil {
		return nil, nil
	}
	var opts []core.LocalizeOption
	for _, name := range wo.Disable {
		if !knownSources[name] {
			return nil, fmt.Errorf("unknown source %q in disable (want latency|router|hint|rdns|geodb|geography)", name)
		}
		opts = append(opts, core.WithoutSource(name))
	}
	names := make([]string, 0, len(wo.Weights))
	for name := range wo.Weights {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		scale := wo.Weights[name]
		if !knownSources[name] {
			return nil, fmt.Errorf("unknown source %q in weights (want latency|router|hint|rdns|geodb|geography)", name)
		}
		if scale <= 0 {
			return nil, fmt.Errorf("weight scale for %q must be > 0, got %v", name, scale)
		}
		opts = append(opts, core.WithSourceWeight(name, scale))
	}
	if wo.MinAreaKm2 < 0 || wo.FineCellKm < 0 {
		return nil, fmt.Errorf("min_area_km2 and fine_cell_km must be ≥ 0")
	}
	if wo.MinAreaKm2 > 0 {
		opts = append(opts, core.WithMinAreaKm2(wo.MinAreaKm2))
	}
	if wo.FineCellKm > 0 {
		opts = append(opts, core.WithFineCellKm(wo.FineCellKm))
	}
	if wo.NegHeightPercentile != 0 {
		if wo.NegHeightPercentile < 0 || wo.NegHeightPercentile > 100 {
			return nil, fmt.Errorf("neg_height_percentile must be in (0, 100], got %v", wo.NegHeightPercentile)
		}
		opts = append(opts, core.WithNegHeightPercentile(wo.NegHeightPercentile))
	}
	if wo.MinLandmarks != 0 {
		if wo.MinLandmarks < 0 {
			return nil, fmt.Errorf("min_landmarks must be ≥ 0, got %d", wo.MinLandmarks)
		}
		opts = append(opts, core.WithMinLandmarks(wo.MinLandmarks))
	}
	if wo.Explain {
		opts = append(opts, core.WithExplain())
	}
	for i, h := range wo.Hints {
		loc := geo.Pt(h.Lat, h.Lon)
		if !loc.Valid() {
			return nil, fmt.Errorf("hint %d: invalid coordinates (%v, %v)", i, h.Lat, h.Lon)
		}
		if h.RadiusKm < 0 || h.RadiusKm > math.Pi*geo.EarthRadiusKm || h.Weight < 0 {
			return nil, fmt.Errorf("hint %d: radius_km must be in [0, π·R] and weight ≥ 0", i)
		}
		opts = append(opts, core.WithHint(loc, h.RadiusKm, h.Weight, h.Label))
	}
	return opts, nil
}

// fuzzWireOptions decodes b into wire options: each op byte sets one
// field from the bytes after it. A name is mostly a known source, else a
// length byte and that many bytes; a number is mostly a small one (one
// byte, in quarters), else eight little-endian bytes. Arguments past the
// end read as zero; an empty input is no options at all.
func fuzzWireOptions(b []byte) *WireOptions {
	if len(b) == 0 {
		return nil
	}
	sources := [...]string{core.SourceLatency, core.SourceRouter, core.SourceHint, core.SourceRDNS, core.SourceGeoDB, core.SourceGeography}
	take := func(n int) []byte {
		if n > len(b) {
			b = nil
			return nil
		}
		out := b[:n]
		b = b[n:]
		return out
	}
	str := func() string {
		if n := take(1); n != nil {
			return string(take(int(n[0])))
		}
		return ""
	}
	name := func() string {
		if n := take(1); n != nil && n[0] < 192 {
			return sources[int(n[0])%len(sources)]
		}
		return str()
	}
	num := func() float64 {
		n := take(1)
		if n == nil {
			return 0
		}
		if n[0] < 224 {
			return float64(int(n[0])-64) / 4
		}
		if raw := take(8); raw != nil {
			return math.Float64frombits(binary.LittleEndian.Uint64(raw))
		}
		return 0
	}
	wo := new(WireOptions)
	for len(b) > 0 {
		switch take(1)[0] % 8 {
		case 0:
			wo.Disable = append(wo.Disable, name())
		case 1:
			if wo.Weights == nil {
				wo.Weights = make(map[string]float64)
			}
			n := name()
			wo.Weights[n] = num()
		case 2:
			wo.MinAreaKm2 = num()
		case 3:
			wo.FineCellKm = num()
		case 4:
			wo.NegHeightPercentile = num()
		case 5:
			if n := take(1); n != nil {
				wo.MinLandmarks = int(int8(n[0]))
			}
		case 6:
			wo.Explain = true
		case 7:
			lat, lon, r, w := num(), num(), num(), num()
			wo.Hints = append(wo.Hints, WireHint{Lat: lat, Lon: lon, RadiusKm: r, Weight: w, Label: str()})
		}
	}
	return wo
}

// FuzzResolveWireOptions: WireOptions.Resolve gives what optionsOracle
// gives — the same refusal text, the same options value (%#v, so nil and
// empty differ and every NaN is alike) and its fingerprint — and defaults
// resolve to (nil, ""). FuzzFingerprint (internal/core) holds that
// fingerprint to the strings.Builder encoding byte for byte.
func FuzzResolveWireOptions(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 4, 0xe0, 0, 0, 4, 0, 0, 0, 0xf0, 0x3f}) // the cache_hot key shape
	f.Add([]byte{1, 192, 3, 'f', 'o', 'o', 68, 1, 192, 3, 'b', 'a', 'r', 68, 1, 4, 60})
	f.Add([]byte{0, 1, 0, 1, 2, 100, 3, 68, 4, 80, 5, 3, 6, 7, 70, 80, 65, 66, 1, 'x'})
	f.Add([]byte{1, 0, 64, 0})
	f.Add([]byte{4, 0xe0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // neg_height_percentile NaN
	f.Fuzz(func(t *testing.T, b []byte) {
		wo := fuzzWireOptions(b)
		got, fp, err := wo.Resolve()
		opts, wantErr := optionsOracle(wo)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%+v: error %v, oracle %v", wo, err, wantErr)
		}
		if err != nil {
			return
		}
		if len(opts) == 0 {
			if got != nil || fp != "" {
				t.Fatalf("%+v: defaults resolved to %+v, %q", wo, got, fp)
			}
			return
		}
		want := core.NewLocalizeOptions(opts...)
		if got == nil || fmt.Sprintf("%#v", *got) != fmt.Sprintf("%#v", want) {
			t.Fatalf("%+v: resolved %#v, oracle %#v", wo, got, want)
		}
		if wantFP := want.Fingerprint(); fp != wantFP {
			t.Fatalf("%+v: fingerprint %q, oracle %q", wo, fp, wantFP)
		}
	})
}

// TestBadWeightsRefusedWithOneText: a body whose weights hold several bad
// entries is refused with the first in name order, on every call — the
// map's walk order used to pick one of three texts at random.
func TestBadWeightsRefusedWithOneText(t *testing.T) {
	h := sharedStack(t).srv.Handler()
	body := `{"target":"a","options":{"weights":{"foo":1,"bar":1,"geodb":-1}}}`
	const want = `{"error":"bad options: unknown source \"bar\" in weights (want latency|router|hint|rdns|geodb|geography)"}` + "\n"
	for i := 0; i < 200; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/localize", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Fatalf("call %d: %d %s, want 400 %s", i, rec.Code, rec.Body, want)
		}
	}
}

// TestResolveOptionsAllocs pins resolving and fingerprinting the
// cache_hot options at one allocation, the fingerprint string: the
// weights map is the decoded one and the encoding is built on the stack.
// A result that is not the defaults adds the options value itself.
func TestResolveOptionsAllocs(t *testing.T) {
	req, ok := canonicalRequest([]byte(cacheHotBody))
	if !ok {
		t.Fatal("cache_hot body is not canonical")
	}
	n := testing.AllocsPerRun(1000, func() {
		if _, _, err := req.Options.Resolve(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per cache_hot resolve", n)
	if n > 2 {
		t.Errorf("Resolve allocates %v times on the cache_hot options, want <= 2", n)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, reusing one
// header map.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header       { return w.h }
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (discardWriter) WriteHeader(int)             {}

// TestLocalizeHitAllocs pins a cache_hot hit through the node's localize
// handler — decode, resolve, engine hit, encode — at 12 allocations
// (21 when the options went through a closure slice), without the router,
// the connection or the recorder.
func TestLocalizeHitAllocs(t *testing.T) {
	s := sharedStack(t)
	body := []byte(strings.Replace(cacheHotBody, "planetlab1.csail.mit.edu", s.targets[0], 1))
	handler := s.srv.localizeHandler(false)
	rd := bytes.NewReader(nil)
	r := httptest.NewRequest(http.MethodPost, "/v2/localize", nil).WithContext(context.Background())
	r.Body = rewindBody{rd}
	w := discardWriter{h: http.Header{}}
	rd.Reset(body)
	handler(w, r) // prime the key
	before := s.srv.engine.Stats().CacheHits
	n := testing.AllocsPerRun(1000, func() {
		rd.Reset(body)
		handler(w, r)
	})
	t.Logf("%v allocations per cache_hot hit", n)
	if hits := s.srv.engine.Stats().CacheHits - before; hits < 1000 {
		t.Fatalf("%d engine hits over 1000 calls: not the hit path", hits)
	}
	if n > 12 {
		t.Errorf("a cache_hot hit allocates %v times, want <= 12", n)
	}
}
