package probe

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"octant/internal/geo"
)

// RetryOptions tunes a RetryProber. The zero value gets sensible
// defaults from WithRetry.
type RetryOptions struct {
	// Attempts is the total number of tries per measurement, first
	// attempt included (0 = default 3; 1 disables retrying).
	Attempts int
	// BaseBackoff is the delay before the first retry; each subsequent
	// retry doubles it (0 = default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling (0 = default 2s).
	MaxBackoff time.Duration

	// Test seams: sleep replaces the inter-attempt wait and rand the
	// jitter draw, so unit tests can run the backoff schedule against a
	// fake clock. Nil selects the real clock and math/rand.
	sleep func(ctx context.Context, d time.Duration) error
	rand  func() float64
}

// jitter spreads each backoff uniformly over ±20 % of its nominal value,
// de-synchronizing retry storms across landmarks.
const jitter = 0.2

// RetryProber wraps a Prober with bounded retries: transient failures
// (see Transient) are re-attempted up to Attempts times with capped
// exponential backoff plus jitter. Permanent failures — unknown addresses, the caller's
// context expiring — return immediately. Survey calibration and the
// evidence pipeline sit on top of this wrapper so a single lost probe
// train does not void minutes of measurement work.
//
// RetryProber implements ContextProber: cancellation is observed between
// attempts and during backoff sleeps, and is forwarded into each attempt
// when the underlying prober is context-aware.
type RetryProber struct {
	p Prober
	o RetryOptions
}

var (
	_ Prober        = (*RetryProber)(nil)
	_ ContextProber = (*RetryProber)(nil)
)

// WithRetry wraps p with retry behaviour. See RetryProber.
func WithRetry(p Prober, o RetryOptions) *RetryProber {
	if o.Attempts <= 0 {
		o.Attempts = 3
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.sleep == nil {
		o.sleep = sleepCtx
	}
	if o.rand == nil {
		o.rand = rand.Float64
	}
	return &RetryProber{p: p, o: o}
}

// Ping implements Prober.
func (r *RetryProber) Ping(src, dst string, n int) ([]float64, error) {
	return r.PingContext(context.Background(), src, dst, n)
}

// PingContext implements ContextProber.
func (r *RetryProber) PingContext(ctx context.Context, src, dst string, n int) ([]float64, error) {
	var out []float64
	err := r.retry(ctx, func() error {
		var e error
		out, e = PingIn(ctx, r.p, src, dst, n)
		return e
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Traceroute implements Prober.
func (r *RetryProber) Traceroute(src, dst string) ([]Hop, error) {
	return r.TracerouteContext(context.Background(), src, dst)
}

// TracerouteContext implements ContextProber.
func (r *RetryProber) TracerouteContext(ctx context.Context, src, dst string) ([]Hop, error) {
	var out []Hop
	err := r.retry(ctx, func() error {
		var e error
		out, e = TracerouteIn(ctx, r.p, src, dst)
		return e
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReverseDNS implements Prober. Metadata lookups are cheap and local;
// they pass straight through.
func (r *RetryProber) ReverseDNS(addr string) string { return r.p.ReverseDNS(addr) }

// Whois implements Prober.
func (r *RetryProber) Whois(addr string) (loc geo.Point, zip string, ok bool) { return r.p.Whois(addr) }

// retry runs attempt until it succeeds, fails permanently, or the
// attempt budget is spent.
func (r *RetryProber) retry(ctx context.Context, attempt func() error) error {
	backoff := r.o.BaseBackoff
	var err error
	for a := 0; a < r.o.Attempts; a++ {
		err = attempt()
		if err == nil {
			return nil
		}
		if !Transient(err) {
			return err
		}
		if a == r.o.Attempts-1 {
			break
		}
		if serr := r.o.sleep(ctx, r.jittered(backoff)); serr != nil {
			// Cancelled mid-backoff: the caller's error wins over the
			// transient one that triggered the wait.
			return serr
		}
		if backoff *= 2; backoff > r.o.MaxBackoff {
			backoff = r.o.MaxBackoff
		}
	}
	return fmt.Errorf("probe: gave up after %d attempts: %w", r.o.Attempts, err)
}

// jittered spreads d over ±jitter of its nominal value.
func (r *RetryProber) jittered(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (1 + jitter*(2*r.o.rand()-1)))
}

// PingIn issues one ping under ctx: ctx's error once it is done, else
// the native context-aware call when p is a ContextProber, else p.Ping.
// It is the one context dispatch: RetryProber's attempts, WithContext's
// binding and the measurement scheduler's trains all call it.
func PingIn(ctx context.Context, p Prober, src, dst string, n int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cp, ok := p.(ContextProber); ok {
		return cp.PingContext(ctx, src, dst, n)
	}
	return p.Ping(src, dst, n)
}

// TracerouteIn is PingIn for one traceroute.
func TracerouteIn(ctx context.Context, p Prober, src, dst string) ([]Hop, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cp, ok := p.(ContextProber); ok {
		return cp.TracerouteContext(ctx, src, dst)
	}
	return p.Traceroute(src, dst)
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
