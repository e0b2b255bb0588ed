package probe

import (
	"context"
	"fmt"
	"net"
	"time"

	"octant/internal/geo"
)

// TCPProber measures real round-trip times by timing TCP handshakes with
// net.Dialer. It is the unprivileged stand-in for ICMP echo: the three-way
// handshake completes in one RTT (plus kernel overhead), so connect time is
// a sound, slightly conservative RTT estimator. Traceroute and WHOIS are
// not available at this privilege level and report empty results; Octant
// degrades gracefully to pure latency constraints in that configuration.
//
// The src argument of Ping is ignored — a process can only measure from
// itself. Targets are "host:port" strings.
type TCPProber struct {
	// Timeout bounds each connection attempt (default 2s).
	Timeout time.Duration
	// Spacing separates consecutive probes so they sample different queue
	// states (default 10ms; the paper uses time-dispersed probes).
	Spacing time.Duration
}

var _ ContextProber = (*TCPProber)(nil)

// NewTCPProber returns a TCPProber with defaults suitable for tests.
func NewTCPProber() *TCPProber {
	return &TCPProber{Timeout: 2 * time.Second, Spacing: 10 * time.Millisecond}
}

// Ping implements Prober.
func (p *TCPProber) Ping(src, dst string, n int) ([]float64, error) {
	return p.PingContext(context.Background(), src, dst, n)
}

// PingContext implements ContextProber by timing n TCP connects to dst
// ("host:port"). Cancelling ctx aborts the connect or the spacing wait in
// progress, and the train returns ctx.Err().
func (p *TCPProber) PingContext(ctx context.Context, _, dst string, n int) ([]float64, error) {
	if n <= 0 {
		n = 1
	}
	timeout := p.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	d := net.Dialer{Timeout: timeout}
	out := make([]float64, 0, n)
	var lastErr error
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := sleepCtx(ctx, p.Spacing); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		conn, err := d.DialContext(ctx, "tcp", dst)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		rtt := time.Since(start)
		_ = conn.Close()
		out = append(out, float64(rtt)/float64(time.Millisecond))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("probe: all %d connects to %s failed: %w", n, dst, lastErr)
	}
	return out, nil
}

// Traceroute implements Prober. TCP-level probing cannot enumerate router
// hops without raw sockets, so it returns an empty path.
func (p *TCPProber) Traceroute(src, dst string) ([]Hop, error) {
	return p.TracerouteContext(context.Background(), src, dst)
}

// TracerouteContext implements ContextProber: an empty path, or ctx.Err().
func (p *TCPProber) TracerouteContext(ctx context.Context, _, _ string) ([]Hop, error) {
	return nil, ctx.Err()
}

// ReverseDNS implements Prober via the system resolver.
func (p *TCPProber) ReverseDNS(addr string) string {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		host = addr
	}
	names, err := net.LookupAddr(host)
	if err != nil || len(names) == 0 {
		return ""
	}
	return names[0]
}

// Whois implements Prober; unavailable without external services.
func (p *TCPProber) Whois(string) (geo.Point, string, bool) {
	return geo.Point{}, "", false
}
