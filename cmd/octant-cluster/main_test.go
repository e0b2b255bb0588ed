package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"octant/internal/cluster"
)

// logBuffer collects the front door's log lines while the test reads them.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitForAddr polls the log for the address the front door bound.
func waitForAddr(t *testing.T, logs *logBuffer, re *regexp.Regexp, done <-chan error) string {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := re.FindStringSubmatch(logs.String()); m != nil {
			return m[1]
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before listening: %v\n%s", err, logs.String())
		default:
		}
	}
	t.Fatalf("never listened:\n%s", logs.String())
	return ""
}

// TestRunFrontsANode boots the front door on a free port from its flags,
// in front of one in-process serve node, localizes one target through it,
// cancels the context and expects a clean drain.
func TestRunFrontsANode(t *testing.T) {
	fleet, err := cluster.StartLocalFleet(cluster.FleetConfig{Nodes: 1, Seed: 1, Holdout: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logs logBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-nodes", "node-0=" + fleet.Nodes[0].URL}, &logs)
	}()
	addr := waitForAddr(t, &logs, regexp.MustCompile(`fronting 1 nodes on (\S+) `), done)

	resp, err := http.Post("http://"+addr+"/v2/localize", "application/json",
		strings.NewReader(fmt.Sprintf(`{"target":%q}`, fleet.Targets[0])))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), `"lat"`) {
		t.Errorf("/v2/localize through the front door: %d %s", resp.StatusCode, body.String())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	if !strings.Contains(logs.String(), "drained, exiting") {
		t.Errorf("no drain line in the log:\n%s", logs.String())
	}
}

// TestRunNeedsNodes: without a usable -nodes the front door refuses to
// start.
func TestRunNeedsNodes(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	for _, args := range [][]string{
		nil,
		{"-nodes", "a=" + srv.URL + ",a=" + srv.URL + "/x"},
		{"-cache", "x", "-nodes", srv.URL},
	} {
		var logs logBuffer
		if err := run(context.Background(), args, &logs); err == nil {
			t.Errorf("run %v succeeded, want an error", args)
		}
	}
}

func TestParseNodes(t *testing.T) {
	nodes, err := parseNodes("a=http://h1:1/, http://h2:2 ,, c = https://h3:3")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, n := range nodes {
		got = append(got, n.Name+"="+n.BaseURL)
	}
	if want := "a=http://h1:1 node-1=http://h2:2 c=https://h3:3"; strings.Join(got, " ") != want {
		t.Errorf("parseNodes = %v, want %s", got, want)
	}
	for _, spec := range []string{
		"",
		" , ",
		"a=http://h1:1,a=http://h2:2",  // duplicate name
		"a=http://h1:1,b=http://h1:1",  // duplicate url
		"a=ftp://h1:1",                 // not http(s)
		"a=h1:1",                       // no scheme
		"=http://h1:1",                 // empty name
		"a=",                           // empty url
		"node-1=http://h1:1,http://h2", // generated name collides
	} {
		if nodes, err := parseNodes(spec); err == nil {
			t.Errorf("parseNodes(%q) = %d nodes, want an error", spec, len(nodes))
		}
	}
}
