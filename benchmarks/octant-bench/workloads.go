package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// workload is one named traffic shape. The reasons live in
// BENCHMARK.json and README.md; here is only what the generator needs.
type workload struct {
	name   string
	fleet  bool          // served by the two-node fleet behind the front door
	open   bool          // open loop at openRate, else closed-loop clients
	conns  int           // client connections
	window time.Duration // the measured time is cut into windows of this length
}

// The two scalar workloads run two closed-loop clients, one per
// processor of the box this was sized on, because one client leaves a
// processor idle and the measurement then hangs on how the virtual
// machine treats an idle processor. cache_hot with one client measured
// the wake-up of a halted processor between the halves of every 25 µs
// request: p99 swung between 0.2 and 5 ms from run to run and throughput
// between 6k and 23k/s; with two it repeats within a few percent.
// solve_cold with one client flipped, over minutes and with no change of
// code, between a 3.2 ms and a 4.9 ms state, while the workloads that
// keep both processors busy moved by a tenth as much. batch_stream keeps
// both busy with one client (two engine workers).
//
// A window is short, so that a disturbance from the host spoils few of
// them, and holds at least a handful of requests: about 120 on
// solve_cold, 10 000 on cache_hot, 4 on batch_stream, 15 on fleet_open.
// README.md, Noise control, has the sizing.
var workloads = []workload{
	{name: "solve_cold", conns: 2, window: 250 * time.Millisecond},
	{name: "cache_hot", conns: 2, window: 250 * time.Millisecond},
	{name: "batch_stream", conns: 1, window: 125 * time.Millisecond},
	{name: "fleet_open", fleet: true, open: true, conns: 2, window: 500 * time.Millisecond},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	hotFingerprints = 32   // cache_hot keys per target: 16 × 32 = 512 < LRU capacity
	openRate        = 30.0 // fleet_open arrivals per second
	popularKeys     = 64   // fleet_open repeat set, primed into the front door's L1
	repeatEvery     = 4    // one fleet_open request in four is a repeat
	zipfS           = 1.1  // skew of the repeat draw
	firstFreshKey   = 100  // fresh keys count up from here; primed keys sit below
)

// bench is one run's state: the substrate, the stacks, the seeded
// generator and the accumulated answers.
type bench struct {
	cfg   config
	wl    workload
	sub   *substrate
	orc   *oracle
	rng   *rand.Rand
	node  *node
	fleet *fleet

	clients []*client
	errs    *errAcc
	nextKey int
	order   []string // the 16 targets in seeded order
	zipf    *rand.Zipf
	sent    int
}

func (b *bench) freshKey() int {
	k := b.nextKey
	b.nextKey++
	return k
}

// connect opens n checked client connections to addr.
func (b *bench) connect(addr string, n int) error {
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			return err
		}
		b.clients = append(b.clients, &client{c: c, orc: b.orc, errs: b.errs})
	}
	return nil
}

func (b *bench) close() {
	for _, cl := range b.clients {
		cl.c.close()
	}
	if b.node != nil {
		b.node.close()
	}
	if b.fleet != nil {
		b.fleet.close()
	}
}

// servingNodes are the nodes whose engines answer the workload.
func (b *bench) servingNodes() []*node {
	if b.wl.fleet {
		return b.fleet.nodes
	}
	return []*node{b.node}
}

// send issues one set-up request outside any window and insists on a
// correct answer.
func (b *bench) send(cl *client, r *request) error {
	_, _, err := cl.do(r, nil, nil)
	return err
}

// prepare connects the clients and brings the stack to the state the
// workload measures from: caches primed where the workload reads them,
// lazy state (land masks, buffer pools, connections) warm everywhere.
func (b *bench) prepare() error {
	addr := ""
	if b.wl.fleet {
		addr = b.fleet.addr
	} else {
		addr = b.node.addr
	}
	if err := b.connect(addr, b.wl.conns); err != nil {
		return err
	}
	var r request
	switch b.wl.name {
	case "solve_cold":
		for i := 0; i < 2*len(b.order); i++ {
			b.mintCold(&r)
			if err := b.send(b.clients[0], &r); err != nil {
				return err
			}
		}
	case "cache_hot":
		// One batch per fingerprint fills the same LRU entries the scalar
		// requests will read, at the fused path's lower cost.
		for k := 0; k < hotFingerprints; k++ {
			r = request{path: "/v2/localize/batch", body: batchBody(r.body[:0], b.order, k), targets: b.order}
			if err := b.send(b.clients[0], &r); err != nil {
				return err
			}
		}
		for i := 0; i < 256; i++ {
			b.mintHot(&r)
			if err := b.send(b.clients[0], &r); err != nil {
				return err
			}
		}
	case "batch_stream":
		for i := 0; i < 4; i++ {
			b.mintBatch(&r)
			if err := b.send(b.clients[0], &r); err != nil {
				return err
			}
		}
	case "fleet_open":
		b.zipf = rand.NewZipf(b.rng, zipfS, 1, popularKeys-1)
		// Each connection primes its share of the popular set.
		errs := make([]error, len(b.clients))
		var wg sync.WaitGroup
		for ci, cl := range b.clients {
			wg.Add(1)
			go func(ci int, cl *client) {
				defer wg.Done()
				var r request
				for i := ci; i < popularKeys && errs[ci] == nil; i += len(b.clients) {
					b.popular(&r, i)
					errs[ci] = b.send(cl, &r)
				}
			}(ci, cl)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// mintCold: every request a new key, targets in seeded rotation.
func (b *bench) mintCold(r *request) {
	t := b.order[b.sent%len(b.order)]
	b.sent++
	k := b.freshKey()
	*r = request{path: "/v2/localize", body: localizeBody(r.body[:0], t, k), targets: append(r.targets[:0], t), fresh: true}
}

// mintHot: a uniform draw over the primed keys.
func (b *bench) mintHot(r *request) {
	j := b.rng.Intn(len(b.order) * hotFingerprints)
	t, k := b.order[j%len(b.order)], j/len(b.order)
	*r = request{path: "/v2/localize", body: localizeBody(r.body[:0], t, k), targets: append(r.targets[:0], t), cached: true}
}

// mintBatch: all 16 targets under one fresh fingerprint.
func (b *bench) mintBatch(r *request) {
	k := b.freshKey()
	*r = request{path: "/v2/localize/batch", body: batchBody(r.body[:0], b.order, k), targets: b.order, fresh: true}
}

// popular fills r with the i-th key of the fleet_open repeat set.
func (b *bench) popular(r *request, i int) {
	t, k := b.order[i%len(b.order)], 1+i/len(b.order)
	*r = request{path: "/v2/localize", body: localizeBody(nil, t, k), targets: []string{t}}
}

// openSchedule generates dur of fleet_open traffic: rate·dur arrivals
// (rounded to a multiple of repeatEvery) at sorted uniform offsets — a
// Poisson process conditioned on its count, so every segment offers the
// stated rate. Exactly one of every repeatEvery consecutive arrivals, at
// a random place among them, is a Zipf draw from the popular set and the
// rest are fresh keys, so every window holds the stated mix as well.
func (b *bench) openSchedule(dur time.Duration) ([]request, []time.Duration) {
	n := repeatEvery * max(1, int(openRate*dur.Seconds()/repeatEvery+0.5))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(b.rng.Float64() * float64(dur))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	reqs := make([]request, n)
	for i := range reqs {
		if i%repeatEvery == 0 {
			b.popular(&reqs[i+b.rng.Intn(repeatEvery)], int(b.zipf.Uint64()))
		}
	}
	for i := range reqs {
		if reqs[i].path != "" {
			continue
		}
		t, k := b.order[b.rng.Intn(len(b.order))], b.freshKey()
		reqs[i] = request{path: "/v2/localize", body: localizeBody(nil, t, k), targets: []string{t}, fresh: true}
	}
	return reqs, due
}

// drive runs dur of the workload's traffic, with spans when tr is set.
func (b *bench) drive(dur time.Duration, tr *tracer) segment {
	for _, n := range b.servingNodes() {
		n.prober.trace.Store(tr)
	}
	switch b.wl.name {
	case "solve_cold":
		return closedLoop(b.clients, b.mintCold, dur, tr)
	case "cache_hot":
		return closedLoop(b.clients, b.mintHot, dur, tr)
	case "batch_stream":
		return closedLoop(b.clients, b.mintBatch, dur, tr)
	default:
		reqs, due := b.openSchedule(dur)
		return openLoop(b.clients, reqs, due, tr)
	}
}
