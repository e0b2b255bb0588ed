package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"octant/internal/batch"
	"octant/internal/cluster"
	"octant/internal/core"
	"octant/internal/lifecycle"
	"octant/internal/netsim"
	"octant/internal/probe"
	"octant/internal/serve"
)

// The world every workload runs against: 51 simulated hosts, the first
// 16 held out as targets, the other 35 surveyed as landmarks.
const (
	worldSeed     = 1 // one world for every run: another world is another input size, not noise
	holdout       = 16
	probesPerPing = 10
	engineWorkers = 2
	engineCache   = 1024
	fleetNodes    = 2
	fleetPace     = 2 * time.Millisecond
	fleetLanes    = 4
)

// lanedProber is the probe boundary the harness owns. It counts every
// ping train and every failed probe, and when pace > 0 it models a node's
// measurement pipeline: a train occupies one of a fixed number of lanes
// for pace before the simulator answers, so lane wait and busy time are
// measured here and not inside the program under test.
//
// Lanes are booked, not slept on one after another. A train takes the
// lane that frees first, books [start, start+pace) on it with start no
// earlier than the end of the lane's last booking, and sleeps once, to
// the end of its own booking. A late wake-up then costs its train that
// lateness and nobody else: the next train's slot was already booked
// from the lane's timetable. Sleeping pace under a lane semaphore, as
// this did at first, added every sleep's overshoot (0.8 ms on the sizing
// machine when quiet, several when not) to every train behind it, nine
// deep on a 35-train fan-out, and fleet_open then measured the host's
// timer latency: its p50 read 25 ms or 55 ms with the host's mood.
type lanedProber struct {
	probe.Prober
	pace atomic.Int64 // nanoseconds a train holds its lane; 0 = unpaced

	mu   sync.Mutex
	free []time.Time // per lane, the end of its last booking

	trains, failed atomic.Uint64
	waitNs, busyNs atomic.Int64

	// trace, when set, receives one span per train.
	trace atomic.Pointer[tracer]
}

func newLanedProber(p probe.Prober, pace time.Duration, lanes int) *lanedProber {
	lp := &lanedProber{Prober: p, free: make([]time.Time, max(1, lanes))}
	lp.pace.Store(int64(pace))
	return lp
}

// book reserves pace on the lane that frees first and returns the
// booking's start and end.
func (p *lanedProber) book(now time.Time, pace time.Duration) (start, end time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lane := 0
	for i, t := range p.free {
		if t.Before(p.free[lane]) {
			lane = i
		}
	}
	start = now
	if p.free[lane].After(now) {
		start = p.free[lane]
	}
	end = start.Add(pace)
	p.free[lane] = end
	return start, end
}

func (p *lanedProber) Ping(src, dst string, n int) ([]float64, error) {
	p.trains.Add(1)
	tr := p.trace.Load()
	var t0, t1 time.Time
	if pace := time.Duration(p.pace.Load()); pace > 0 {
		t0 = time.Now()
		var end time.Time
		t1, end = p.book(t0, pace)
		time.Sleep(time.Until(end))
		p.waitNs.Add(int64(t1.Sub(t0)))
		p.busyNs.Add(int64(pace))
	} else if tr != nil {
		t0 = time.Now()
		t1 = t0
	}
	out, err := p.Prober.Ping(src, dst, n)
	if err != nil {
		p.failed.Add(1)
	}
	if tr != nil {
		tr.probeSpan(dst, t0, t1, time.Now())
	}
	return out, err
}

func (p *lanedProber) Traceroute(src, dst string) ([]probe.Hop, error) {
	hops, err := p.Prober.Traceroute(src, dst)
	if err != nil {
		p.failed.Add(1)
	}
	return hops, err
}

// probeCounts is a snapshot of a lanedProber's counters.
type probeCounts struct {
	trains, failed uint64
	waitNs, busyNs int64
}

func (p *lanedProber) counts() probeCounts {
	return probeCounts{
		trains: p.trains.Load(),
		failed: p.failed.Load(),
		waitNs: p.waitNs.Load(),
		busyNs: p.busyNs.Load(),
	}
}

// substrate is the simulated Internet and its surveyed landmark set.
type substrate struct {
	world     *netsim.World
	sim       *probe.SimProber
	landmarks []core.Landmark
	targets   []string
	survey    *core.Survey
}

// newWorld builds the simulated Internet and names its targets and
// landmarks; probeSurvey then measures the landmark mesh.
func newWorld() (*substrate, error) {
	world := netsim.NewWorld(netsim.Config{Seed: worldSeed})
	hosts := world.HostNodes()
	if len(hosts) < holdout+3 {
		return nil, fmt.Errorf("world has %d hosts, need at least %d", len(hosts), holdout+3)
	}
	s := &substrate{world: world, sim: probe.NewSimProber(world)}
	for _, h := range hosts[:holdout] {
		s.targets = append(s.targets, h.Name)
	}
	for _, h := range hosts[holdout:] {
		s.landmarks = append(s.landmarks, core.Landmark{Addr: h.Name, Name: h.Inst, Loc: h.Loc})
	}
	return s, nil
}

func (s *substrate) probeSurvey() error {
	survey, err := core.NewSurvey(s.sim, s.landmarks, core.SurveyOpts{Probes: probesPerPing, UseHeights: true})
	if err != nil {
		return fmt.Errorf("survey: %w", err)
	}
	s.survey = survey
	return nil
}

func newSubstrate() (*substrate, error) {
	s, err := newWorld()
	if err != nil {
		return nil, err
	}
	return s, s.probeSurvey()
}

// cloneSurvey copies a survey through the snapshot codec, the path a
// fleet replica takes when it adopts a pushed epoch.
func cloneSurvey(s *core.Survey) (*core.Survey, error) {
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return core.ReadSnapshot(&buf)
}

// node is one real serving stack listening on loopback.
type node struct {
	prober  *lanedProber
	manager *lifecycle.Manager
	engine  *batch.Engine
	server  *serve.Server
	handler http.Handler
	addr    string

	hs   *http.Server
	done chan struct{}
}

// startNode assembles prober → lifecycle manager → batch engine → serve
// handler → http.Server from the public constructors.
func startNode(sub *substrate, survey *core.Survey, pace time.Duration, lanes int) (*node, error) {
	n := &node{prober: newLanedProber(sub.sim, pace, lanes)}
	n.manager = lifecycle.New(n.prober, survey, core.Config{Probes: probesPerPing}, lifecycle.Options{Probes: probesPerPing})
	n.engine = batch.NewWithProvider(n.manager, batch.Options{Workers: engineWorkers, CacheSize: engineCache})
	n.server = serve.New(n.engine, n.manager, serve.Options{})
	n.handler = n.server.Handler()
	var err error
	n.addr, n.hs, n.done, err = listenAndServe(n.handler)
	return n, err
}

func (n *node) close() { closeServer(n.hs, n.done) }

func listenAndServe(h http.Handler) (addr string, hs *http.Server, done chan struct{}, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	hs = &http.Server{Handler: h}
	done = make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return ln.Addr().String(), hs, done, nil
}

func closeServer(hs *http.Server, done chan struct{}) {
	if hs == nil {
		return
	}
	_ = hs.Close() // drops the listener and every connection
	<-done
}

// fleet is two paced nodes behind a cluster front door, all in-process
// and all reached over loopback HTTP.
type fleet struct {
	nodes   []*node
	clients []*cluster.NodeClient
	router  *cluster.Router
	handler http.Handler
	addr    string

	transport *http.Transport
	hs        *http.Server
	done      chan struct{}
}

func startFleet(sub *substrate) (*fleet, error) {
	f := &fleet{transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	for i := 0; i < fleetNodes; i++ {
		survey := sub.survey
		if i > 0 {
			var err error
			if survey, err = cloneSurvey(sub.survey); err != nil {
				f.close()
				return nil, err
			}
		}
		n, err := startNode(sub, survey, fleetPace, fleetLanes)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		f.clients = append(f.clients, &cluster.NodeClient{
			Name:    fmt.Sprintf("node-%d", i),
			BaseURL: "http://" + n.addr,
			HTTP:    &http.Client{Transport: f.transport},
		})
	}
	var err error
	if f.router, err = cluster.NewRouter(f.clients, cluster.RouterConfig{}); err != nil {
		f.close()
		return nil, err
	}
	coord, err := cluster.NewCoordinator(f.clients)
	if err != nil {
		f.close()
		return nil, err
	}
	f.handler = cluster.NewFront(f.router, coord).Handler()
	if f.addr, f.hs, f.done, err = listenAndServe(f.handler); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) close() {
	closeServer(f.hs, f.done)
	f.transport.CloseIdleConnections()
	for _, n := range f.nodes {
		n.close()
	}
}

// setPace changes how long a train holds its lane on every node; the
// ladder drops it to 0 to time the cluster's own hops without the sleeps'
// jitter on top.
func (f *fleet) setPace(pace time.Duration) {
	for _, n := range f.nodes {
		n.prober.pace.Store(int64(pace))
	}
}

// bootTimes is one cold boot, split at the boundaries the harness sees.
type bootTimes struct {
	total, survey, snapshot, firstLocalize time.Duration
}

// coldBoot times what a rolling restart pays per node: fresh world →
// survey → manager → engine → handler → listener → first uncached
// /v2/localize answered and checked. The snapshot round trip a replica
// would pay instead of the survey is timed after the clock stops.
func coldBoot(targetIdx int, check func(target string, body []byte) error) (bootTimes, error) {
	var bt bootTimes
	t0 := time.Now()
	sub, err := newWorld()
	if err != nil {
		return bt, err
	}
	tSurvey := time.Now()
	if err := sub.probeSurvey(); err != nil {
		return bt, err
	}
	bt.survey = time.Since(tSurvey)
	n, err := startNode(sub, sub.survey, 0, 0)
	if err != nil {
		return bt, err
	}
	defer n.close()
	c, err := dial(n.addr)
	if err != nil {
		return bt, err
	}
	defer c.close()
	target := sub.targets[targetIdx%len(sub.targets)]
	tFirst := time.Now()
	status, body, err := c.post("/v2/localize", localizeBody(nil, target, 0), nil)
	bt.firstLocalize = time.Since(tFirst)
	bt.total = time.Since(t0)
	if err != nil {
		return bt, err
	}
	if status != http.StatusOK {
		return bt, fmt.Errorf("cold boot: status %d: %s", status, body)
	}
	if err := check(target, body); err != nil {
		return bt, fmt.Errorf("cold boot: %w", err)
	}
	tSnap := time.Now()
	if _, err := cloneSurvey(sub.survey); err != nil {
		return bt, err
	}
	bt.snapshot = time.Since(tSnap)
	return bt, nil
}
