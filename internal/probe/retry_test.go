package probe

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"octant/internal/geo"
	"octant/internal/netsim"
)

// flakyProber fails its first failures calls with err, then succeeds.
type flakyProber struct {
	nilProber
	failures int
	err      error
	calls    int
}

type nilProber struct{}

func (nilProber) Ping(src, dst string, n int) ([]float64, error) { return []float64{1}, nil }
func (nilProber) Traceroute(src, dst string) ([]Hop, error)      { return nil, nil }
func (nilProber) ReverseDNS(addr string) string                  { return "" }
func (nilProber) Whois(addr string) (loc geo.Point, zip string, ok bool) {
	return geo.Point{}, "", false
}

func (f *flakyProber) Ping(src, dst string, n int) ([]float64, error) {
	f.calls++
	if f.calls <= f.failures {
		return nil, f.err
	}
	return []float64{42}, nil
}

func TestTransientClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{fmt.Errorf("wrapped: %w", ErrTimeout), true},
		{fmt.Errorf("wrapped: %w", ErrUnreachable), true},
		{context.Canceled, false},
		{fmt.Errorf("op: %w", context.DeadlineExceeded), false},
		{errors.New("unknown address"), false},
		{nil, false},
	} {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestSimProberFaultErrors(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 5})
	p := NewSimProber(w)
	hosts := w.HostNodes()
	a, b := hosts[0], hosts[1]

	if _, err := p.Ping(a.Name, b.Name, 4); err != nil {
		t.Fatalf("healthy ping: %v", err)
	}

	// Downed destination: unreachable, transient (it may come back).
	w.SetNodeDown(b.ID, true)
	_, err := p.Ping(a.Name, b.Name, 4)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("ping to downed node: err = %v, want ErrUnreachable", err)
	}
	if !Transient(err) {
		t.Fatal("node-down ping error should classify transient")
	}
	if _, err := p.Traceroute(a.Name, b.Name); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("traceroute to downed node: err = %v, want ErrUnreachable", err)
	}
	w.SetNodeDown(b.ID, false)

	// Blackholed pair: same shape.
	w.SetPairBlackhole(a.ID, b.ID, true)
	if _, err := p.Ping(a.Name, b.Name, 4); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("ping across blackhole: err = %v, want ErrUnreachable", err)
	}
	w.SetPairBlackhole(a.ID, b.ID, false)

	// Total loss: the path is fine but every probe vanishes — a timeout.
	w.SetPairLossRate(a.ID, b.ID, 1.0)
	if _, err := p.Ping(a.Name, b.Name, 4); !errors.Is(err, ErrTimeout) {
		t.Fatalf("ping under total loss: err = %v, want ErrTimeout", err)
	}
	w.SetPairLossRate(a.ID, b.ID, 0)

	if _, err := p.Ping(a.Name, b.Name, 4); err != nil {
		t.Fatalf("ping after clearing faults: %v", err)
	}

	// Unknown address stays permanent.
	if _, err := p.Ping(a.Name, "no-such-host", 4); err == nil || Transient(err) {
		t.Fatalf("unknown address: err = %v, want a permanent error", err)
	}
}

// TestRetryBackoffSchedule drives the retry loop against a fake clock
// and checks the exact wait sequence: base, doubled, capped, and no
// sleep after the final attempt.
func TestRetryBackoffSchedule(t *testing.T) {
	under := &flakyProber{failures: 10, err: fmt.Errorf("probe: %w", ErrTimeout)}
	var slept []time.Duration
	r := WithRetry(under, RetryOptions{
		Attempts:    5,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  25 * time.Millisecond,
		rand:        func() float64 { return 0.5 }, // mid-band: exact schedule, no spread
		sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	_, err := r.Ping("a", "b", 4)
	if err == nil || !errors.Is(err, ErrTimeout) {
		t.Fatalf("exhausted retry: err = %v, want wrapped ErrTimeout", err)
	}
	want := []time.Duration{
		10 * time.Millisecond, // base
		20 * time.Millisecond, // doubled
		25 * time.Millisecond, // capped
		25 * time.Millisecond, // stays capped; none after the last attempt
	}
	if len(slept) != len(want) {
		t.Fatalf("slept %d times (%v), want %d", len(slept), slept, len(want))
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("backoff %d = %v, want %v", i, slept[i], want[i])
		}
	}
	// 5 attempts, 4 retries (one wait each), exhausted.
	if under.calls != 5 || len(slept) != 4 || !strings.Contains(err.Error(), "gave up after 5 attempts") {
		t.Errorf("%d attempts / %d retries / err %v, want 5 / 4 / exhausted", under.calls, len(slept), err)
	}
}

func TestRetryJitterSpread(t *testing.T) {
	under := &flakyProber{failures: 1, err: fmt.Errorf("probe: %w", ErrTimeout)}
	var slept []time.Duration
	r := WithRetry(under, RetryOptions{
		Attempts:    2,
		BaseBackoff: 100 * time.Millisecond,
		rand:        func() float64 { return 1 }, // top of the ±20 % band
		sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	if _, err := r.Ping("a", "b", 4); err != nil {
		t.Fatalf("second attempt should have succeeded: %v", err)
	}
	if len(slept) != 1 || slept[0] != 120*time.Millisecond {
		t.Fatalf("jittered backoff = %v, want [120ms]", slept)
	}
}

func TestRetryRecoversWithinBudget(t *testing.T) {
	under := &flakyProber{failures: 2, err: fmt.Errorf("probe: %w", ErrUnreachable)}
	retries := 0
	r := WithRetry(under, RetryOptions{
		Attempts: 3,
		sleep:    func(ctx context.Context, d time.Duration) error { retries++; return nil },
	})
	out, err := r.Ping("a", "b", 4)
	if err != nil || len(out) != 1 || out[0] != 42 {
		t.Fatalf("Ping = %v, %v; want the third attempt's samples", out, err)
	}
	if under.calls != 3 || retries != 2 {
		t.Errorf("%d attempts / %d retries, want 3 / 2", under.calls, retries)
	}
}

func TestRetryPermanentErrorStops(t *testing.T) {
	under := &flakyProber{failures: 10, err: errors.New("unknown host")}
	r := WithRetry(under, RetryOptions{
		Attempts: 5,
		sleep: func(ctx context.Context, d time.Duration) error {
			t.Fatal("permanent error must not back off")
			return nil
		},
	})
	if _, err := r.Ping("a", "b", 4); err == nil {
		t.Fatal("want the permanent error back")
	}
	if under.calls != 1 {
		t.Fatalf("underlying prober called %d times, want 1", under.calls)
	}
}

func TestRetryCancelledMidBackoff(t *testing.T) {
	under := &flakyProber{failures: 10, err: fmt.Errorf("probe: %w", ErrTimeout)}
	ctx, cancel := context.WithCancel(context.Background())
	r := WithRetry(under, RetryOptions{
		Attempts: 5,
		sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // the caller walks away while we wait
			return ctx.Err()
		},
	})
	_, err := r.PingContext(ctx, "a", "b", 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if under.calls != 1 {
		t.Fatalf("underlying prober called %d times after cancel, want 1", under.calls)
	}
	// And a context already dead never reaches the prober at all.
	under2 := &flakyProber{}
	r2 := WithRetry(under2, RetryOptions{Attempts: 3})
	if _, err := r2.PingContext(ctx, "a", "b", 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context ping: err = %v, want context.Canceled", err)
	}
	if under2.calls != 0 {
		t.Fatalf("dead context still reached the prober %d times", under2.calls)
	}
}
