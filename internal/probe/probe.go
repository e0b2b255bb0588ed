// Package probe defines the measurement interface between the Octant
// framework and the network, plus its two implementations: SimProber, which
// measures the synthetic Internet in internal/netsim, and TCPProber, which
// measures real RTTs with TCP handshake timing via net.Dialer (the standard
// unprivileged substitute for ICMP, which needs raw sockets).
//
// Octant's algorithms depend only on the Prober interface, so moving the
// framework from the simulator to a real deployment is a constructor swap.
package probe

import (
	"fmt"
	"math"

	"octant/internal/geo"
)

// Hop is one traceroute step as seen by the framework.
type Hop struct {
	Addr  string  // IP or opaque address of the router
	Name  string  // reverse-DNS name ("" if unresolvable)
	RTTMs float64 // cumulative round-trip latency to this hop
}

// Prober is the measurement surface Octant needs from the network.
type Prober interface {
	// Ping returns n time-dispersed RTT samples in milliseconds from src
	// to dst, identified by address.
	Ping(src, dst string, n int) ([]float64, error)
	// Traceroute returns the router-level path from src to dst.
	Traceroute(src, dst string) ([]Hop, error)
	// ReverseDNS resolves an address to a DNS name ("" if unknown).
	ReverseDNS(addr string) string
	// Whois returns the registration location hint for an address.
	// ok is false when no record exists.
	Whois(addr string) (loc geo.Point, zip string, ok bool)
}

// MinRTT returns the minimum of samples, or an error for empty input or
// for any sample that is not a finite RTT > 0 (a Prober is pluggable: a
// NaN would otherwise pass every comparison, and a zero would become the
// heaviest, tightest constraint in the solve). The min over
// time-dispersed probes is the estimator every technique in the paper
// consumes.
func MinRTT(samples []float64) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("probe: no samples")
	}
	m := math.Inf(1)
	for i, s := range samples {
		if !(s > 0) || math.IsInf(s, 1) {
			return 0, fmt.Errorf("probe: sample %d = %v ms is not a valid RTT", i, s)
		}
		if s < m {
			m = s
		}
	}
	return m, nil
}
