package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"octant/internal/netsim"
)

// logBuffer collects the daemon's log lines while the test reads them.
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

// waitForAddr polls the log for the address the daemon bound.
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

// TestRunServesAndDrains boots the daemon on a free port from its flags,
// localizes one held-out host over HTTP, cancels the context and expects a
// clean drain.
func TestRunServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var logs logBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-holdout", "40", "-workers", "2", "-probes", "3"}, &logs)
	}()
	addr := waitForAddr(t, &logs, regexp.MustCompile(`listening on (\S+) `), done)

	target := netsim.NewWorld(netsim.Config{Seed: 1}).HostNodes()[0].Name
	resp, err := http.Post("http://"+addr+"/v2/localize", "application/json",
		strings.NewReader(fmt.Sprintf(`{"target":%q}`, target)))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), `"lat"`) {
		t.Errorf("/v2/localize: %d %s", resp.StatusCode, body.String())
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

// TestRunRejectsBadFlags: a flag or prober error comes back from run
// before anything listens.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "x"},
		{"-no-such-flag"},
		{"-prober", "carrier-pigeon"},
	} {
		var logs logBuffer
		if err := run(context.Background(), args, &logs); err == nil {
			t.Errorf("run %v succeeded, want an error", args)
		}
		if strings.Contains(logs.String(), "listening") {
			t.Errorf("run %v listened before failing", args)
		}
	}
}
