package main

import (
	"bufio"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share req; parent is the span that caused this one (0 = none).
type span struct {
	id, parent, req int
	name            string
	start, end      time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory and writes them out when the run ends.
// Every span is recorded from the harness's own files, around the calls
// into each layer; nothing inside the program under test is touched.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	requests int // client requests begun; their ids count up from 1
	// inFlight lists, per target, the client spans now asking about it,
	// oldest first. The prober sees a train's destination and nothing
	// else of the request that caused it, so when one target is in
	// flight twice (fleet_open draws targets at random over two
	// connections) its trains are booked to the older request: both
	// requests keep their own client.request span, and the split of
	// probe spans between them is approximate for that overlap.
	inFlight map[string][]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16), inFlight: make(map[string][]int)}
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, req: req, name: name,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return id
}

// begin opens a client request span, so that probe trains the server
// issues for its targets can name it as their cause; finish closes it.
func (t *tracer) begin(targets []string, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.requests++
	t.spans = append(t.spans, span{id: id, req: t.requests, name: "client.request", start: start.Sub(t.epoch)})
	for _, target := range targets {
		t.inFlight[target] = append(t.inFlight[target], id)
	}
	return id
}

func (t *tracer) finish(id int, targets []string, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = end.Sub(t.epoch)
	for _, target := range targets {
		ids := t.inFlight[target]
		if i := slices.Index(ids, id); i >= 0 {
			t.inFlight[target] = slices.Delete(ids, i, i+1)
		}
	}
}

// probeSpan records one ping train seen at the harness's prober: the
// wait for a lane [t0,t1) and the train itself [t1,t2). Trains nobody
// is waiting for (set-up traffic) are not recorded.
func (t *tracer) probeSpan(dst string, t0, t1, t2 time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.inFlight[dst]) == 0 {
		return
	}
	parent := t.inFlight[dst][0]
	req := t.spans[parent-1].req
	if t1.After(t0) {
		t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, req: req,
			name: "probe.lane_wait", start: t0.Sub(t.epoch), end: t1.Sub(t.epoch)})
	}
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, req: req,
		name: "probe.train", start: t1.Sub(t.epoch), end: t2.Sub(t.epoch)})
}

// reqOf returns the request id of span id.
func (t *tracer) reqOf(id int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].req
}

// spanStat summarises the spans of one name.
type spanStat struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	MedianUs float64 `json:"median_us"`
	TotalMs  float64 `json:"total_ms"`
}

// summary groups the spans by name, in order of first appearance.
func (t *tracer) summary() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	var order []string
	us := map[string][]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if _, ok := us[s.name]; !ok {
			order = append(order, s.name)
		}
		us[s.name] = append(us[s.name], float64(s.end-s.start)/1e3)
	}
	out := make([]spanStat, len(order))
	for i, name := range order {
		out[i] = spanStat{Name: name, Count: len(us[name]), MedianUs: median(us[name]), TotalMs: sum(us[name]) / 1e3}
	}
	return out
}

// write stores the trace as JSON: one object per span with its id,
// parent id (0 for a root), request id, name, and start and end in
// microseconds since the trace epoch.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var b []byte
	b = append(b, `{"workload":`...)
	b = strconv.AppendQuote(b, workload)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, seed, 10)
	b = append(b, `,"epoch_unix_ns":`...)
	b = strconv.AppendInt(b, t.epoch.UnixNano(), 10)
	b = append(b, `,"spans":[`...)
	for i := range t.spans {
		s := &t.spans[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n{\"id\":"...)
		b = strconv.AppendInt(b, int64(s.id), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"req":`...)
		b = strconv.AppendInt(b, int64(s.req), 10)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, s.name)
		b = append(b, `,"start_us":`...)
		b = strconv.AppendFloat(b, float64(s.start)/1e3, 'f', 3, 64)
		b = append(b, `,"end_us":`...)
		b = strconv.AppendFloat(b, float64(s.end)/1e3, 'f', 3, 64)
		b = append(b, '}')
		if len(b) > 1<<15 {
			if _, err := w.Write(b); err != nil {
				f.Close()
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, "\n]}\n"...)
	if _, err := w.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
