package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"octant/internal/batch"
	"octant/internal/cluster"
	"octant/internal/core"
	"octant/internal/lifecycle"
	"octant/internal/probe"
	"octant/internal/serve"
)

// bodyBound is what these tests lower the request-body read bound to.
const bodyBound = 300 * time.Millisecond

// stallingProber holds the first ping to each target for stall, so the
// first localization of a target outlasts bodyBound.
type stallingProber struct {
	probe.Prober
	stall time.Duration
	seen  sync.Map
}

func (p *stallingProber) Ping(src, dst string, n int) ([]float64, error) {
	if _, measured := p.seen.LoadOrStore(dst, true); !measured {
		time.Sleep(p.stall)
	}
	return p.Prober.Ping(src, dst, n)
}

// listen serves h the way every Octant listener does (serve.HTTPServer)
// and returns its address.
func listen(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewUnstartedServer(h)
	srv.Config = serve.HTTPServer(h)
	srv.Start()
	t.Cleanup(srv.Close)
	return srv.Listener.Addr().String()
}

// TestSlowRequestBody: a node and the front door each cut off a request
// body trickled at one byte per 50 ms within the body bound — whether the
// JSON itself trickles or a complete object is followed by trickled
// padding — answering 400 and closing the connection, with the goroutine
// count back at its baseline; so does the node's /v1/survey/install for
// its own snapshot followed by trickled padding. An NDJSON batch stream
// that runs longer than the bound, its body read in time, still completes.
func TestSlowRequestBody(t *testing.T) {
	t.Cleanup(serve.SetBodyReadTimeout(bodyBound))
	sim, landmarks, err := serve.BuildProber("sim", 5, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	survey, err := core.NewSurvey(sim, landmarks, core.SurveyOpts{UseHeights: true})
	if err != nil {
		t.Fatal(err)
	}
	manager := lifecycle.New(&stallingProber{Prober: sim, stall: 3 * bodyBound}, survey, core.Config{}, lifecycle.Options{})
	node := serve.New(batch.NewWithProvider(manager, batch.Options{}), manager, serve.Options{})
	nodeAddr := listen(t, node.Handler())
	router, err := cluster.NewRouter([]*cluster.NodeClient{{Name: "node-0", BaseURL: "http://" + nodeAddr}}, cluster.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	frontAddr := listen(t, cluster.NewFront(router, nil).Handler())
	targets := sim.(*probe.SimProber).World.HostNodes()[:4]

	for i, tc := range []struct{ name, addr string }{{"node", nodeAddr}, {"front door", frontAddr}} {
		t.Run(tc.name, func(t *testing.T) {
			trickleIsCutOff(t, tc.addr, "/v2/localize", "")
			trickleIsCutOff(t, tc.addr, "/v2/localize", `{"target":"x"}`)
			// Each surface gets targets nobody measured yet, so the stall holds.
			batchOutlastsBound(t, tc.addr, []string{targets[2*i].Name, targets[2*i+1].Name})
		})
	}
	t.Run("install", func(t *testing.T) {
		resp, err := http.Get("http://" + nodeAddr + "/v1/survey/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		snap, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot: %d, %v", resp.StatusCode, err)
		}
		trickleIsCutOff(t, nodeAddr, "/v1/survey/install", string(snap))
	})
}

// trickleIsCutOff sends a POST to path with a body of head, at once,
// then 100 bytes of JSON whitespace at one byte per 50 ms (five seconds in
// all), and expects a 400 and a closed connection well before the body
// would have arrived.
func trickleIsCutOff(t *testing.T, addr, path, head string) {
	t.Helper()
	what := fmt.Sprintf("%s, body head %.40q", path, head)
	baseline := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const size = 100
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: octant\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", path, len(head)+size, head)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < size; i++ {
			time.Sleep(50 * time.Millisecond)
			if _, err := conn.Write([]byte{' '}); err != nil {
				return // the server hung up
			}
		}
	}()
	conn.SetReadDeadline(start.Add(2 * time.Second))
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("%s: no answer %v after the headers: %v", what, time.Since(start), err)
	}
	if !strings.Contains(status, " 400 ") {
		t.Errorf("%s: status line %q, want a 400", what, strings.TrimSpace(status))
	}
	// The server hangs up: EOF, or a reset when our padding was still
	// unread in its buffer. Only the read deadline means it did not.
	if _, err := io.Copy(io.Discard, br); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("%s: connection still open %v after the headers: %v", what, time.Since(start), err)
	}
	conn.Close()
	wg.Wait()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after the cut-off, %d before", what, runtime.NumGoroutine(), baseline)
		}
	}
}

// batchOutlastsBound streams a /v2/localize/batch whose targets take
// longer than the body bound to measure, and expects every line.
func batchOutlastsBound(t *testing.T, addr string, targets []string) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"targets": targets})
	start := time.Now()
	resp, err := http.Post("http://"+addr+"/v2/localize/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	lines := 0
	for dec := json.NewDecoder(resp.Body); dec.More(); lines++ {
		var tr serve.TargetResultV2
		if err := dec.Decode(&tr); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if tr.Error != "" {
			t.Errorf("%s: %s", tr.Target, tr.Error)
		}
	}
	if lines != len(targets) {
		t.Errorf("%d lines, want %d", lines, len(targets))
	}
	if took := time.Since(start); took <= bodyBound {
		t.Errorf("the batch took %v, not longer than the %v bound it must outlast", took, bodyBound)
	}
}
