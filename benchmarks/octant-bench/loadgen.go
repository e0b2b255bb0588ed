package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// request is one generated call on the serving API.
type request struct {
	path    string
	body    []byte
	targets []string
	cached  bool // the answer must say cached:true
	fresh   bool // a key never sent before
}

// sample is one completed request as the generator saw it. at is when
// it left (closed loop) or was due (open loop), since the segment began.
// For an open loop latency runs from the due time, late is how long
// after the due time the request left, and exactly one of connWait
// (every connection was busy) and timerLag (a connection was free and
// its sleep overshot) explains it.
type sample struct {
	at, latency, late, connWait, timerLag time.Duration
	n                                     int  // correct localizations in the answer
	fresh                                 bool // asked under a key never sent before
}

// segment is one uninterrupted stretch of a workload's traffic: the
// whole measured time of an untraced run; a traced run alternates
// segments with and without spans.
type segment struct {
	spanned   bool
	elapsed   time.Duration // start to the last completion
	samples   []sample
	attempted int // requests sent
	failed    int // requests that errored or answered wrongly
	localized int // correct localizations (targets, not requests)
	firstErr  error
}

// errAcc accumulates each target's distance from the truth over the
// answers of a run.
type errAcc struct {
	mu  sync.Mutex
	sum map[string]float64
	n   map[string]int
}

func newErrAcc() *errAcc { return &errAcc{sum: map[string]float64{}, n: map[string]int{}} }

func (a *errAcc) add(target string, km float64) {
	a.mu.Lock()
	a.sum[target] += km
	a.n[target]++
	a.mu.Unlock()
}

// medianKm is the median over targets of the target's mean error: each
// target counts once however often the workload drew it, so the figure
// depends on the answers and not on the draw.
func (a *errAcc) medianKm() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var means []float64
	for t, s := range a.sum {
		means = append(means, s/float64(a.n[t]))
	}
	return median(means)
}

// client sends requests on one connection and checks every answer.
type client struct {
	c    *conn
	orc  *oracle
	errs *errAcc
}

// do sends r, returns when the whole response has been read, and then
// checks it. tr, when non-nil, receives the request's span. firstByte
// is passed through to conn.post.
func (cl *client) do(r *request, tr *tracer, firstByte *time.Time) (done time.Time, localized int, err error) {
	var spanID int
	if tr != nil {
		spanID = tr.begin(r.targets, time.Now())
	}
	status, body, err := cl.c.post(r.path, r.body, firstByte)
	done = time.Now()
	if tr != nil {
		tr.finish(spanID, r.targets, done)
	}
	if err != nil {
		return done, 0, err
	}
	if status != http.StatusOK {
		return done, 0, fmt.Errorf("%s: status %d: %s", r.path, status, body)
	}
	if len(r.targets) == 1 {
		km, err := cl.orc.checkBody(body, r.targets[0], r.cached)
		if err != nil {
			return done, 0, err
		}
		cl.errs.add(r.targets[0], km)
		return done, 1, nil
	}
	if err := cl.orc.checkStream(body, r.targets, cl.errs.add); err != nil {
		return done, 0, err
	}
	return done, len(r.targets), nil
}

func (g *segment) record(s sample, err error) {
	g.attempted++
	if err != nil {
		s.n = 0
		g.failed++
		if g.firstErr == nil {
			g.firstErr = err
		}
	}
	g.localized += s.n
	g.samples = append(g.samples, s)
}

// closedLoop drives each client in its own closed loop for dur: a
// client's next request leaves when its previous answer has been read
// and checked. mint is called by one client at a time.
func closedLoop(cls []*client, mint func(*request), dur time.Duration, tr *tracer) segment {
	g := segment{spanned: tr != nil}
	var mu, mintMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	last := start
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			var r request
			for {
				mintMu.Lock()
				mint(&r)
				mintMu.Unlock()
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				done, n, err := cl.do(&r, tr, nil)
				mu.Lock()
				if done.After(last) {
					last = done
				}
				g.record(sample{at: t0.Sub(start), latency: done.Sub(t0), n: n, fresh: r.fresh}, err)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	g.elapsed = last.Sub(start)
	return g
}

// sleepUntil sleeps to just short of t and yields through the rest, so
// an open-loop send leaves within microseconds of its due time without
// holding a processor the server needs.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 300*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop sends reqs[i] at start+due[i] whatever the system's state,
// over at most len(cls) connections: each connection takes the next
// unsent request, waits for its due time if it is early, and sends.
// Latency runs from the due time, so a stall is charged to every
// request it delays.
func openLoop(cls []*client, reqs []request, due []time.Duration, tr *tracer) segment {
	g := segment{spanned: tr != nil}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	last := start
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				dueAt := start.Add(due[i])
				s := sample{at: due[i], fresh: reqs[i].fresh}
				if pickup := time.Now(); pickup.Before(dueAt) {
					sleepUntil(dueAt)
					s.timerLag = time.Since(dueAt)
					s.late = s.timerLag
				} else {
					s.connWait = pickup.Sub(dueAt)
					s.late = s.connWait
				}
				done, n, err := cl.do(&reqs[i], tr, nil)
				s.latency, s.n = done.Sub(dueAt), n
				mu.Lock()
				if done.After(last) {
					last = done
				}
				g.record(s, err)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	g.elapsed = last.Sub(start)
	return g
}

// window is what one short stretch of a segment measured: the median
// latency of the requests that left (or were due) in it, and the rate
// at which they were answered.
type window struct {
	p50ms float64
	perS  float64 // correct localizations per second, first send to last completion
}

// cut splits a segment's samples into windows of length per by the time
// they left and returns the statistics of every full window that holds
// any of the samples keep admits (nil admits all).
func cut(g *segment, per time.Duration, keep func(*sample) bool) []window {
	type acc struct {
		lat        []float64
		n          int
		first, end time.Duration
	}
	accs := make([]acc, int(g.elapsed/per))
	for i := range g.samples {
		s := &g.samples[i]
		k := int(s.at / per)
		if k >= len(accs) || (keep != nil && !keep(s)) {
			continue
		}
		a := &accs[k]
		if len(a.lat) == 0 || s.at < a.first {
			a.first = s.at
		}
		a.end = max(a.end, s.at+s.latency)
		a.lat = append(a.lat, float64(s.latency)/1e6)
		a.n += s.n
	}
	var out []window
	for i := range accs {
		a := &accs[i]
		if len(a.lat) == 0 {
			continue
		}
		sort.Float64s(a.lat)
		out = append(out, window{p50ms: quantile(a.lat, 0.5), perS: float64(a.n) / (a.end - a.first).Seconds()})
	}
	return out
}
