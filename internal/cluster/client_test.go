package cluster

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"octant/internal/serve"
)

// cannedTransport answers every request 200 with body, without a socket.
type cannedTransport struct{ body string }

func (c cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(strings.NewReader(c.body)),
		Request:    req,
	}, nil
}

// TestBatchV2Allocs: a 2-target batch call allocates under 64 KiB. The
// line scanner starts small and grows to its cap only for a line that
// needs it; a 1 MiB buffer up front cost ≈ 1.05 MB a call.
func TestBatchV2Allocs(t *testing.T) {
	body := `{"target":"a","lat":1,"lon":2,"area_km2":3}` + "\n" + `{"target":"b","error":"unknown target"}` + "\n"
	n := &NodeClient{Name: "n", BaseURL: "http://node.invalid", HTTP: &http.Client{Transport: cannedTransport{body}}}
	call := func() {
		lines := 0
		if err := n.BatchV2(context.Background(), []string{"a", "b"}, nil, func(serve.TargetResultV2) error { lines++; return nil }); err != nil || lines != 2 {
			t.Fatalf("BatchV2: %d lines, err %v", lines, err)
		}
	}
	call()
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got > 64<<10 {
		t.Errorf("a 2-target BatchV2 allocates %d B, budget 64 KiB", got)
	} else {
		t.Logf("2-target BatchV2: %d B a call", got)
	}
}

// TestBatchV2LineCap: a result line over 1 MiB is still refused.
func TestBatchV2LineCap(t *testing.T) {
	body := `{"target":"` + strings.Repeat("a", 1<<20) + `"}` + "\n"
	n := &NodeClient{Name: "n", BaseURL: "http://node.invalid", HTTP: &http.Client{Transport: cannedTransport{body}}}
	err := n.BatchV2(context.Background(), []string{"a", "b"}, nil, func(serve.TargetResultV2) error { return nil })
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("BatchV2 over a 1 MiB line: err %v, want %v", err, bufio.ErrTooLong)
	}
}
