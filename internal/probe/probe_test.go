package probe

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"octant/internal/netsim"
)

func TestMinMedianRTT(t *testing.T) {
	for _, tc := range []struct {
		samples []float64
		want    float64 // NaN: an error
	}{
		{nil, math.NaN()},
		{[]float64{5, 3, 9}, 3},
		{[]float64{0, 3}, math.NaN()},
		{[]float64{math.NaN(), 3}, math.NaN()},
		{[]float64{3, math.NaN()}, math.NaN()},
		{[]float64{3, math.Inf(1)}, math.NaN()},
		{[]float64{math.Inf(-1), 3}, math.NaN()},
		{[]float64{3, -1}, math.NaN()},
	} {
		m, err := MinRTT(tc.samples)
		if math.IsNaN(tc.want) {
			if err == nil {
				t.Errorf("MinRTT(%v) = %v, want an error", tc.samples, m)
			}
		} else if err != nil || m != tc.want {
			t.Errorf("MinRTT(%v) = %v, %v; want %v", tc.samples, m, err, tc.want)
		}
	}
}

func TestSimProber(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 5})
	p := NewSimProber(w)
	hosts := w.HostNodes()
	src, dst := hosts[0].Name, hosts[10].Name

	samples, err := p.Ping(src, dst, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("got %d samples", len(samples))
	}
	min, _ := MinRTT(samples)
	if min <= 0 || math.IsInf(min, 0) {
		t.Errorf("min RTT = %v", min)
	}
	// Matches the world's own view.
	a, _ := w.HostByName(src)
	b, _ := w.HostByName(dst)
	if want := w.MinPing(a.ID, b.ID, 10); min != want {
		t.Errorf("prober min %v != world min %v", min, want)
	}

	hops, err := p.Traceroute(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) < 2 {
		t.Fatalf("too few hops: %d", len(hops))
	}
	if hops[len(hops)-1].Name != dst {
		t.Errorf("last hop %q, want %q", hops[len(hops)-1].Name, dst)
	}
	// Hop addresses reverse-resolve to their names.
	if got := p.ReverseDNS(hops[0].Addr); got != hops[0].Name {
		t.Errorf("ReverseDNS(%s) = %q, want %q", hops[0].Addr, got, hops[0].Name)
	}

	if _, err := p.Ping("bogus.example.com", dst, 3); err == nil {
		t.Error("unknown src should error")
	}
	if _, err := p.Traceroute(src, "bogus.example.com"); err == nil {
		t.Error("unknown dst should error")
	}

	loc, zip, ok := p.Whois(src)
	if !ok || zip == "" || !loc.Valid() {
		t.Errorf("Whois(%s) = %v %q %v", src, loc, zip, ok)
	}
	if _, _, ok := p.Whois("bogus.example.com"); ok {
		t.Error("unknown addr should have no WHOIS")
	}
}

// TestTCPProberCancelMidTrain: a ten-connect train with one second of
// spacing, cancelled after its first connect, ends with ctx.Err() at
// once instead of sleeping out the rest of its spacing. It goes through
// PingIn, as every caller bounded by a context does.
func TestTCPProberCancelMidTrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan time.Time, 1)
	go func() {
		for first := true; ; first = false {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c.Close()
			if first {
				cancelled <- time.Now()
				cancel()
			}
		}
	}()
	p := &TCPProber{Timeout: time.Second, Spacing: time.Second}
	_, err = PingIn(ctx, p, "", ln.Addr().String(), 10)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want %v", err, context.Canceled)
	}
	if lag := returned.Sub(<-cancelled); lag > 100*time.Millisecond {
		t.Fatalf("returned %v after the cancel", lag)
	}
}

// TestTCPProberLoopback exercises the real-network prober against local
// listeners: RTT ordering should reflect the artificial delay we add on
// accept (a real, observable network path through the kernel).
func TestTCPProberLoopback(t *testing.T) {
	fast, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	go func() {
		for {
			c, err := fast.Accept()
			if err != nil {
				return
			}
			_ = c.Close()
		}
	}()

	p := NewTCPProber()
	p.Spacing = time.Millisecond
	samples, err := p.Ping("", fast.Addr().String(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("got %d samples", len(samples))
	}
	min, _ := MinRTT(samples)
	if min <= 0 {
		t.Errorf("loopback RTT must be positive, got %v", min)
	}
	if min > 100 {
		t.Errorf("loopback RTT %v ms implausibly high", min)
	}

	// Unreachable target errors.
	if _, err := (&TCPProber{Timeout: 200 * time.Millisecond}).Ping("", "127.0.0.1:1", 2); err == nil {
		t.Error("connect to closed port should error")
	}

	// Traceroute/Whois degrade gracefully.
	if hops, err := p.Traceroute("", fast.Addr().String()); err != nil || hops != nil {
		t.Errorf("TCP traceroute = %v %v, want empty", hops, err)
	}
	if _, _, ok := p.Whois(fast.Addr().String()); ok {
		t.Error("TCP Whois should be unavailable")
	}
}
