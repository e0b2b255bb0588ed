package measure

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octant/internal/geo"
	"octant/internal/probe"
)

// fakeProber is a controllable Prober: deterministic RTTs derived from
// the (src, dst) pair, optional per-call delay, optional per-src
// failures, and concurrency accounting (current and high-water in-flight
// counts, globally and per source).
type fakeProber struct {
	delay time.Duration
	// gate, when non-nil, holds every Ping in flight until it is closed.
	gate chan struct{}

	mu      sync.Mutex
	calls   int
	bySrc   map[string]int
	inSrc   map[string]int
	maxSrc  map[string]int
	in      int
	max     int
	failSrc map[string]error
	// slowSrc adds a per-source delay before the call returns.
	slowSrc map[string]time.Duration
	starts  map[string][]time.Time
}

func newFakeProber(delay time.Duration) *fakeProber {
	return &fakeProber{
		delay:   delay,
		bySrc:   make(map[string]int),
		inSrc:   make(map[string]int),
		maxSrc:  make(map[string]int),
		failSrc: make(map[string]error),
		slowSrc: make(map[string]time.Duration),
		starts:  make(map[string][]time.Time),
	}
}

func (f *fakeProber) rtt(src, dst string) float64 {
	return float64(len(src)*7+len(dst)*3) / 10
}

func (f *fakeProber) Ping(src, dst string, n int) ([]float64, error) {
	f.mu.Lock()
	f.calls++
	f.bySrc[src]++
	f.in++
	f.inSrc[src]++
	if f.in > f.max {
		f.max = f.in
	}
	if f.inSrc[src] > f.maxSrc[src] {
		f.maxSrc[src] = f.inSrc[src]
	}
	f.starts[src] = append(f.starts[src], time.Now())
	failErr, delay := f.failSrc[src], f.delay+f.slowSrc[src]
	f.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if f.gate != nil {
		<-f.gate
	}

	f.mu.Lock()
	f.in--
	f.inSrc[src]--
	f.mu.Unlock()

	if failErr != nil {
		return nil, failErr
	}
	base := f.rtt(src, dst)
	out := make([]float64, n)
	for i := range out {
		out[i] = base + float64(i)
	}
	return out, nil
}

func (f *fakeProber) Traceroute(src, dst string) ([]probe.Hop, error) {
	f.mu.Lock()
	f.calls++
	failErr := f.failSrc[src]
	f.mu.Unlock()
	if failErr != nil {
		return nil, failErr
	}
	return []probe.Hop{{Addr: src, RTTMs: 0}, {Addr: dst, RTTMs: f.rtt(src, dst)}}, nil
}

func (f *fakeProber) ReverseDNS(addr string) string { return "" }

func (f *fakeProber) Whois(addr string) (geo.Point, string, bool) {
	return geo.Point{}, "", false
}

func (f *fakeProber) totalCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func srcNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("lm-%02d", i)
	}
	return out
}

// TestPingMinIntoMatchesSequential pins the scheduler's core contract:
// slot i holds exactly MinRTT(Ping(srcs[i], dst, n)) — same values, same
// per-slot error identities — regardless of completion order.
func TestPingMinIntoMatchesSequential(t *testing.T) {
	p := newFakeProber(0)
	boom := errors.New("vantage down")
	p.failSrc["lm-03"] = boom
	srcs := srcNames(12)
	s := New(Config{Workers: 5})

	out := make([]float64, len(srcs))
	errs := make([]error, len(srcs))
	s.PingMinInto(context.Background(), p, srcs, "target", 10, 0, out, errs)

	for i, src := range srcs {
		if src == "lm-03" {
			if !errors.Is(errs[i], boom) {
				t.Errorf("slot %d: err = %v, want %v", i, errs[i], boom)
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("slot %d: unexpected error %v", i, errs[i])
			continue
		}
		want := p.rtt(src, "target")
		if math.Abs(out[i]-want) > 1e-12 {
			t.Errorf("slot %d: min = %v, want %v", i, out[i], want)
		}
	}
	st := s.Stats()
	if st.Pings != uint64(len(srcs)) || st.PingFailures != 1 {
		t.Errorf("stats: pings=%d failures=%d, want %d/1", st.Pings, st.PingFailures, len(srcs))
	}
}

// TestConcurrencyCaps drives many concurrent rounds over a few sources
// and asserts neither the global worker cap nor the per-landmark token
// bucket is ever exceeded.
func TestConcurrencyCaps(t *testing.T) {
	// Eight rounds over four sources want 32 trains at once: both the
	// global cap and each source's perLandmark bucket must hold them back.
	p := newFakeProber(2 * time.Millisecond)
	srcs := srcNames(4)
	s := New(Config{Workers: 12})

	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(srcs))
			errs := make([]error, len(srcs))
			s.PingMinInto(context.Background(), p, srcs, "target", 4, 0, out, errs)
		}()
	}
	wg.Wait()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.max > 12 {
		t.Errorf("observed %d concurrent probes, global cap is 12", p.max)
	}
	for src, m := range p.maxSrc {
		if m > perLandmark {
			t.Errorf("source %s saw %d concurrent trains, per-landmark cap is %d", src, m, perLandmark)
		}
	}
}

// TestFanoutOverlapsTrains is the lower bound TestConcurrencyCaps lacks:
// one round holds min(workers, sources) trains in flight at once — no
// fewer — and a one-worker scheduler holds exactly one. It counts trains
// parked on a gate, so nothing depends on how long a probe takes. This is
// the structural fact the retired paced-latency (≥ 4×), fused-bulk (≥ 5×)
// and per-node (≥ 3×) timing floors each measured with a stopwatch.
func TestFanoutOverlapsTrains(t *testing.T) {
	for _, c := range []struct {
		name          string
		cfg           Config
		sources, want int
	}{
		{"default pool, fewer sources than workers", Config{}, 12, 12},
		{"default pool, more sources than workers", Config{}, 24, 16},
		{"one worker", Config{Workers: 1}, 12, 1},
	} {
		p := newFakeProber(0)
		p.gate = make(chan struct{})
		s := New(c.cfg)
		srcs := srcNames(c.sources)
		out := make([]float64, len(srcs))
		errs := make([]error, len(srcs))
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.PingMinInto(context.Background(), p, srcs, "target", 4, 0, out, errs)
		}()

		deadline := time.Now().Add(5 * time.Second)
		for {
			p.mu.Lock()
			in := p.in
			p.mu.Unlock()
			if in == c.want {
				break
			}
			if time.Now().After(deadline) {
				close(p.gate)
				<-done
				t.Fatalf("%s: %d trains in flight at once, want %d — the fan-out is not overlapping its probes", c.name, in, c.want)
			}
			time.Sleep(time.Millisecond)
		}
		close(p.gate)
		<-done

		p.mu.Lock()
		if p.max != c.want {
			t.Errorf("%s: peak %d trains in flight, want exactly %d", c.name, p.max, c.want)
		}
		if p.calls != c.sources {
			t.Errorf("%s: %d trains issued, want %d", c.name, p.calls, c.sources)
		}
		p.mu.Unlock()
	}
}

// TestRoundsFinishOnOneProcessor runs a ping round and a pair sweep on
// one processor with jobs that never block, so the calling goroutine
// works the round while its helpers wait to be scheduled. Every slot
// still runs exactly once into its own index, the round's failure stays
// in its slot, and the sweep reports its lowest failed pair and issues
// no pair after it.
func TestRoundsFinishOnOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	boom := errors.New("vantage down")
	srcs := srcNames(40)
	s := New(Config{Workers: 16})

	p := newFakeProber(0)
	p.failSrc["lm-05"] = boom
	out := make([]float64, len(srcs))
	errs := make([]error, len(srcs))
	s.PingMinInto(context.Background(), p, srcs, "target", 4, 0, out, errs)
	for i, src := range srcs {
		if p.bySrc[src] != 1 {
			t.Errorf("round: slot %d pinged %d times, want once", i, p.bySrc[src])
		}
		switch {
		case src == "lm-05":
			if !errors.Is(errs[i], boom) {
				t.Errorf("round: slot %d err = %v, want %v", i, errs[i], boom)
			}
		case errs[i] != nil || out[i] != p.rtt(src, "target"):
			t.Errorf("round: slot %d = (%v, %v), want (%v, nil)", i, out[i], errs[i], p.rtt(src, "target"))
		}
	}

	p = newFakeProber(0)
	errLow, errHigh := errors.New("low slot"), errors.New("high slot")
	p.failSrc["lm-07"], p.failSrc["lm-20"] = errLow, errHigh
	addrs := append(srcs, "target")
	pairs := make([][2]int, len(srcs))
	for i := range srcs {
		pairs[i] = [2]int{i, len(srcs)}
	}
	out = make([]float64, len(pairs))
	if slot, err := s.PingPairsInto(context.Background(), p, addrs, pairs, 4, out); slot != 7 || !errors.Is(err, errLow) {
		t.Errorf("sweep = (%d, %v), want (7, %v)", slot, err, errLow)
	}
	for i, src := range srcs {
		want := 1
		if i > 7 {
			want = 0
		}
		if p.bySrc[src] != want {
			t.Errorf("sweep: pair %d pinged %d times, want %d", i, p.bySrc[src], want)
		}
		if i < 7 && out[i] != p.rtt(src, "target") {
			t.Errorf("sweep: pair %d = %v, want %v", i, out[i], p.rtt(src, "target"))
		}
	}
	if st := s.Stats(); st.Rounds != 2 || st.Pings != uint64(len(srcs)+8) {
		t.Errorf("stats: rounds=%d pings=%d, want 2/%d", st.Rounds, st.Pings, len(srcs)+8)
	}
}

// TestCancelMidFanout: a context cancelled mid-round returns promptly,
// leaves no goroutines behind, and leaves the scheduler fit for a clean
// retry.
func TestCancelMidFanout(t *testing.T) {
	before := runtime.NumGoroutine()

	p := newFakeProber(30 * time.Millisecond)
	srcs := srcNames(40)
	s := New(Config{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())

	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	out := make([]float64, len(srcs))
	errs := make([]error, len(srcs))
	start := time.Now()
	s.PingMinInto(ctx, p, srcs, "target", 10, 0, out, errs)
	elapsed := time.Since(start)

	// 40 slots / 4 workers would take ≥ 300 ms uncancelled; the abort
	// must only wait out the trains already on the wire.
	if elapsed > 200*time.Millisecond {
		t.Errorf("cancelled round took %v, want prompt abort", elapsed)
	}
	var cancelled int
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no slot reported context.Canceled")
	}
	if st := s.Stats(); st.CancelledRounds != 1 {
		t.Errorf("cancelled rounds = %d, want 1", st.CancelledRounds)
	}

	// A clean retry against the same scheduler must work and fill every
	// slot — no held tokens, no stale partial state.
	// (Fresh errs: slots only write their slot on failure, like the
	// sequential loop's append-on-error.)
	p2 := newFakeProber(0)
	errs = make([]error, len(srcs))
	s.PingMinInto(context.Background(), p2, srcs, "target", 10, 0, out, errs)
	for i, err := range errs {
		if err != nil {
			t.Errorf("post-cancel slot %d: %v", i, err)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after settle window", before, runtime.NumGoroutine())
}

// TestPairSweepLowestErroredSlot pins the pair sweep's error selection
// to the sequential loop's semantics: when several pairs fail, the
// reported one is the lowest — the pair a serialized walk would have
// aborted on — even if a higher slot failed first in wall-clock order.
func TestPairSweepLowestErroredSlot(t *testing.T) {
	p := newFakeProber(0)
	errLow := errors.New("low slot")
	errHigh := errors.New("high slot")
	p.failSrc["lm-03"], p.slowSrc["lm-03"] = errLow, 20*time.Millisecond // fails last in wall-clock order
	p.failSrc["lm-07"] = errHigh                                         // fails first
	srcs := srcNames(10)
	addrs := append(srcs, "target")
	pairs := make([][2]int, len(srcs))
	for i := range srcs {
		pairs[i] = [2]int{i, len(srcs)}
	}
	s := New(Config{Workers: 16})
	out := make([]float64, len(pairs))
	slot, err := s.PingPairsInto(context.Background(), p, addrs, pairs, 4, out)
	if slot != 3 || !errors.Is(err, errLow) {
		t.Errorf("PingPairsInto = (%d, %v), want (3, %v)", slot, err, errLow)
	}

	slot, err = s.PingPairsInto(context.Background(), newFakeProber(0), addrs, pairs, 4, out)
	if slot != -1 || err != nil {
		t.Errorf("clean PingPairsInto = (%d, %v), want (-1, nil)", slot, err)
	}
	for i, src := range srcs {
		if want := p.rtt(src, "target"); out[i] != want {
			t.Errorf("slot %d: min = %v, want %v", i, out[i], want)
		}
	}
}

// TestTracerouteInto checks slot placement and per-slot failures for the
// path fan-out.
func TestTracerouteInto(t *testing.T) {
	p := newFakeProber(0)
	boom := errors.New("no route")
	p.failSrc["lm-01"] = boom
	srcs := srcNames(5)
	s := New(Config{})

	hops := make([][]probe.Hop, len(srcs))
	errs := make([]error, len(srcs))
	s.TracerouteInto(context.Background(), p, srcs, "target", hops, errs)
	for i, src := range srcs {
		if src == "lm-01" {
			if !errors.Is(errs[i], boom) {
				t.Errorf("slot %d: err = %v, want %v", i, errs[i], boom)
			}
			continue
		}
		if errs[i] != nil || len(hops[i]) != 2 || hops[i][0].Addr != src {
			t.Errorf("slot %d: hops = %v, err = %v", i, hops[i], errs[i])
		}
	}
	// Traceroutes counts issued probes (failures included), mirroring
	// the Pings counter's semantics.
	if st := s.Stats(); st.Traceroutes != 5 || st.TracerouteFailures != 1 {
		t.Errorf("stats: traceroutes=%d failures=%d, want 5/1", st.Traceroutes, st.TracerouteFailures)
	}
}

// TestSchedulerRace hammers one scheduler from every entry point at once
// (meaningful under -race): ping rounds, traceroute rounds,
// pair sweeps, Stats reads, and a cancelling client.
func TestSchedulerRace(t *testing.T) {
	p := newFakeProber(time.Millisecond)
	srcs := srcNames(8)
	s := New(Config{Workers: 8})
	var wg sync.WaitGroup
	var epoch atomic.Uint64

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				out := make([]float64, len(srcs))
				errs := make([]error, len(srcs))
				ctx := context.Background()
				if w == 3 && i%2 == 0 {
					c, cancel := context.WithTimeout(ctx, 3*time.Millisecond)
					defer cancel()
					ctx = c
				}
				s.PingMinInto(ctx, p, srcs, fmt.Sprintf("t%d", i%3), 4, epoch.Load(), out, errs)
				if i%4 == 0 {
					epoch.Add(1)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			hops := make([][]probe.Hop, len(srcs))
			errs := make([]error, len(srcs))
			s.TracerouteInto(context.Background(), p, srcs, "t0", hops, errs)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		pairs := make([][2]int, 6)
		for slot := range pairs {
			pairs[slot] = [2]int{slot % len(srcs), (slot + 1) % len(srcs)}
		}
		out := make([]float64, len(pairs))
		for i := 0; i < 20; i++ {
			_, _ = s.PingPairsInto(context.Background(), p, srcs, pairs, 4, out)
			_ = s.Stats()
		}
	}()
	wg.Wait()
}
