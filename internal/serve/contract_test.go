package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The /v2 contract tests pin the wire format with golden request/response
// JSON pairs under testdata/: a request body is replayed verbatim against
// a deterministic serving stack and the (normalized) response must match
// the archived golden byte-for-byte in structure and value. Regenerate
// with:
//
//	go test ./internal/serve -run TestV2Contract -update
var update = flag.Bool("update", false, "rewrite the /v2 contract goldens from the current responses")

// normalizeWire strips the response fields that legitimately vary run to
// run (timings, cache status) so the goldens pin only the contract:
// shapes, names, counts, and deterministic solver outputs.
func normalizeWire(v any) any {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "elapsed_ms")
		delete(x, "cached")
		delete(x, "solve_ms")
		delete(x, "measure_ms")
		for k, val := range x {
			x[k] = normalizeWire(val)
		}
		return x
	case []any:
		for i := range x {
			x[i] = normalizeWire(x[i])
		}
		return x
	default:
		return v
	}
}

// wireEqual compares decoded JSON values with a small relative float
// tolerance, so goldens generated on one architecture hold on another.
func wireEqual(a, b any, path string) error {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: object vs %T", path, b)
		}
		if len(av) != len(bv) {
			return fmt.Errorf("%s: %d keys vs %d", path, len(av), len(bv))
		}
		for k, x := range av {
			y, ok := bv[k]
			if !ok {
				return fmt.Errorf("%s.%s: missing in response", path, k)
			}
			if err := wireEqual(x, y, path+"."+k); err != nil {
				return err
			}
		}
		return nil
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return fmt.Errorf("%s: array mismatch", path)
		}
		for i := range av {
			if err := wireEqual(av[i], bv[i], fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	case float64:
		bf, ok := b.(float64)
		if !ok {
			return fmt.Errorf("%s: number vs %T", path, b)
		}
		if av == bf {
			return nil
		}
		if math.Abs(av-bf) > 1e-9*math.Max(1, math.Max(math.Abs(av), math.Abs(bf))) {
			return fmt.Errorf("%s: %v != %v", path, av, bf)
		}
		return nil
	default:
		if !jsonScalarEqual(a, b) {
			return fmt.Errorf("%s: %v != %v", path, a, b)
		}
		return nil
	}
}

func jsonScalarEqual(a, b any) bool { return a == b }

// contractStack builds a dedicated deterministic stack so the goldens
// never depend on what other tests have already cached or swapped.
func contractStack(t *testing.T) testStack {
	t.Helper()
	s, err := buildStack(17, 36)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runContractCase(t *testing.T, h http.Handler, path, reqFile, goldenFile string, batch bool) {
	t.Helper()
	reqBody, err := os.ReadFile(filepath.Join("testdata", reqFile))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(reqBody))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}

	// Decode the response into comparable structure: one object for the
	// single endpoint, a target-sorted array for the NDJSON stream
	// (stream order is completion order, which is not contractual).
	var got any
	if batch {
		var lines []map[string]any
		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			lines = append(lines, m)
		}
		sort.Slice(lines, func(i, j int) bool {
			ti, _ := lines[i]["target"].(string)
			tj, _ := lines[j]["target"].(string)
			return ti < tj
		})
		arr := make([]any, len(lines))
		for i, m := range lines {
			arr[i] = m
		}
		got = arr
	} else {
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		got = m
	}
	got = normalizeWire(got)

	goldenPath := filepath.Join("testdata", goldenFile)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	goldenData, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var want any
	if err := json.Unmarshal(goldenData, &want); err != nil {
		t.Fatal(err)
	}
	if err := wireEqual(want, got, goldenFile); err != nil {
		t.Errorf("contract drift vs %s: %v", goldenFile, err)
	}
}

// TestV2Contract replays the archived /v2 request bodies — including a
// WithExplain provenance payload — and pins the responses.
func TestV2Contract(t *testing.T) {
	s := contractStack(t)
	h := s.srv.Handler()
	runContractCase(t, h, "/v2/localize", "v2_localize_request.json", "v2_localize_golden.json", false)
	runContractCase(t, h, "/v2/localize/batch", "v2_batch_request.json", "v2_batch_golden.json", true)
}
