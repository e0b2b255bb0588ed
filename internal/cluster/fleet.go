package cluster

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/lifecycle"
	"octant/internal/netsim"
	"octant/internal/probe"
	"octant/internal/serve"
)

// FleetConfig shapes a LocalFleet.
type FleetConfig struct {
	// Nodes is the fleet size (required, ≥ 1).
	Nodes int
	// Seed derives the shared simulated world.
	Seed uint64
	// Holdout hosts are excluded from the survey so they stay
	// localizable targets (0 = default 8).
	Holdout int
	// CacheSize per node engine LRU (0 = default 1024).
	CacheSize int
	// RetryAttempts wraps every node's prober in probe.WithRetry with
	// this attempt budget (0/1 = no retries). The chaos harness uses it
	// so transient loss injected into the world is absorbed below the
	// quorum layer. Backoffs are kept tiny (1ms base, 10ms cap) because
	// the simulated wire has no real propagation delay to wait out.
	RetryAttempts int
}

// FleetNode is one in-process serving node of a LocalFleet.
type FleetNode struct {
	Name   string
	URL    string
	Server *serve.Server

	mu   sync.Mutex
	addr string // the node's fixed listen address, kept across Kill/Revive
	ln   net.Listener
	hs   *http.Server // nil while the node is killed
}

// Kill drops the node off the network abruptly: the listener closes and
// every in-flight request is aborted, exactly what a crashed process
// looks like to the router. The node's engine and survey stay intact so
// Revive restores it without re-measuring.
func (n *FleetNode) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.hs == nil {
		return
	}
	_ = n.hs.Close()
	_ = n.ln.Close()
	n.hs, n.ln = nil, nil
}

// Revive brings a killed node back on its original address, so clients
// holding its URL reconnect without reconfiguration.
func (n *FleetNode) Revive() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.hs != nil {
		return nil
	}
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		return fmt.Errorf("revive %s: %w", n.Name, err)
	}
	hs := serve.HTTPServer(n.Server.Handler())
	go func() { _ = hs.Serve(ln) }()
	n.ln, n.hs = ln, hs
	return nil
}

// LocalFleet is a real multi-node Octant fleet running in one process:
// every node is a full serve stack (lifecycle manager, batch engine,
// HTTP listener on 127.0.0.1) over one shared simulated world, so
// cluster behaviour — routing, peer caching, rolling swaps — is
// exercised over genuine HTTP with genuine concurrency. The cluster tests
// and the chaos harness build on it.
type LocalFleet struct {
	World   *netsim.World
	Nodes   []*FleetNode
	Targets []string
}

// StartLocalFleet builds and starts a fleet. All nodes adopt the same
// initial survey (probed once), so the fleet starts epoch-coherent and
// bit-identical — the same property a production fleet gets from
// snapshot distribution.
func StartLocalFleet(cfg FleetConfig) (*LocalFleet, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("fleet needs ≥ 1 node, got %d", cfg.Nodes)
	}
	if cfg.Holdout == 0 {
		cfg.Holdout = 8
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	prober, landmarks, err := serve.BuildProber("sim", cfg.Seed, cfg.Holdout, "")
	if err != nil {
		return nil, err
	}
	world := prober.(*probe.SimProber).World
	f := &LocalFleet{World: world}
	for _, h := range world.HostNodes()[:cfg.Holdout] {
		f.Targets = append(f.Targets, h.Name)
	}

	// One survey measurement for the whole fleet; every node gets its own
	// deserialized copy via the snapshot round trip, exactly as a replica
	// adopting a pushed epoch would, so per-node surveys are independent
	// objects with identical calibrations.
	survey, err := core.NewSurvey(prober, landmarks, core.SurveyOpts{Probes: 10, UseHeights: true})
	if err != nil {
		f.Close()
		return nil, err
	}

	for i := 0; i < cfg.Nodes; i++ {
		nodeSurvey := survey
		if i > 0 {
			nodeSurvey, err = roundTripSurvey(survey)
			if err != nil {
				f.Close()
				return nil, err
			}
		}
		nodeProber := prober
		if cfg.RetryAttempts > 1 {
			nodeProber = probe.WithRetry(nodeProber, probe.RetryOptions{
				Attempts:    cfg.RetryAttempts,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  10 * time.Millisecond,
			})
		}
		manager := lifecycle.New(nodeProber, nodeSurvey, core.Config{Probes: 10}, lifecycle.Options{Probes: 10})
		engine := batch.NewWithProvider(manager, batch.Options{
			Workers:   4,
			CacheSize: cfg.CacheSize,
		})
		srv := serve.New(engine, manager, serve.Options{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, err
		}
		hs := serve.HTTPServer(srv.Handler())
		go func() { _ = hs.Serve(ln) }()
		f.Nodes = append(f.Nodes, &FleetNode{
			Name:   fmt.Sprintf("node-%d", i),
			URL:    "http://" + ln.Addr().String(),
			Server: srv,
			addr:   ln.Addr().String(),
			ln:     ln,
			hs:     hs,
		})
	}
	return f, nil
}

// roundTripSurvey clones a survey through the snapshot codec — the same
// path a pushed epoch takes, and the reason replica calibrations are
// bit-identical to the source's.
func roundTripSurvey(s *core.Survey) (*core.Survey, error) {
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return core.ReadSnapshot(&buf)
}

// Clients returns one NodeClient per fleet member, in node order.
func (f *LocalFleet) Clients() []*NodeClient {
	out := make([]*NodeClient, len(f.Nodes))
	for i, n := range f.Nodes {
		out[i] = &NodeClient{Name: n.Name, BaseURL: n.URL}
	}
	return out
}

// Close shuts every node down immediately.
func (f *LocalFleet) Close() {
	for _, n := range f.Nodes {
		n.Kill()
	}
}
