package probe

import (
	"context"

	"octant/internal/geo"
)

// ContextProber is a Prober whose expensive measurement calls natively
// observe a context: a prober backed by real sockets can abort an
// in-flight measurement the moment the context is cancelled, rather than
// merely declining to start the next one. The metadata lookups
// (ReverseDNS, Whois) stay context-free — they are cheap and local in
// every implementation.
type ContextProber interface {
	Prober
	// PingContext is Ping bounded by ctx.
	PingContext(ctx context.Context, src, dst string, n int) ([]float64, error)
	// TracerouteContext is Traceroute bounded by ctx.
	TracerouteContext(ctx context.Context, src, dst string) ([]Hop, error)
}

// WithContext binds ctx to p: the returned Prober fails Ping and
// Traceroute with ctx's error once the context is done. When p implements
// ContextProber the native context-aware calls are used, so cancellation
// can interrupt a measurement mid-flight; otherwise cancellation is
// enforced between measurement calls, which is where localization spends
// its wall-clock anyway (one Ping per landmark, one Traceroute per
// selected landmark).
//
// Binding an already bound prober stacks: every bound context is
// observed, so a caller-supplied application binding keeps cancelling
// measurements after a per-request binding is layered on top. The batch
// engine binds each request from the Localizer's original prober, so its
// stacks never grow beyond the caller's depth plus one.
func WithContext(ctx context.Context, p Prober) Prober {
	return &boundProber{ctx: ctx, p: p}
}

// boundProber is the WithContext adapter: PingIn and TracerouteIn with
// ctx fixed.
type boundProber struct {
	ctx context.Context
	p   Prober
}

var _ Prober = (*boundProber)(nil)

func (b *boundProber) Ping(src, dst string, n int) ([]float64, error) {
	return PingIn(b.ctx, b.p, src, dst, n)
}

func (b *boundProber) Traceroute(src, dst string) ([]Hop, error) {
	return TracerouteIn(b.ctx, b.p, src, dst)
}

func (b *boundProber) ReverseDNS(addr string) string { return b.p.ReverseDNS(addr) }

func (b *boundProber) Whois(addr string) (geo.Point, string, bool) { return b.p.Whois(addr) }
