package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"octant/internal/batch"
	"octant/internal/cluster"
	"octant/internal/core"
	"octant/internal/geo"
	"octant/internal/probe"
	"octant/internal/serve"
)

// The ladder is how layers are timed from outside. The same seeded
// sample requests are issued at successive depths of the stack — over
// loopback HTTP, then straight into the handler, then into the engine,
// the localizer, the scheduler and the solver — each time under a fresh
// cache key so that nothing above the rung short-circuits it. A layer's
// self time is the median over samples of the sample's time at the
// layer's rung minus its time one rung down. Each execution is recorded
// as a span whose parent is the same sample's span one rung up.

// ladderResult keeps, in milliseconds, the self times the coverage
// figure adds up.
type ladderResult struct {
	netHop, netHopMiss, netHopBatch        float64
	serveMissSelf, serveHitSelf            float64
	batchMissSelf, batchHit                float64
	evidenceSelf, solve                    float64
	fanout, fanoutPaced, traceroute        float64
	frontSelf, routerSelf, proxyHop        float64
	serveBatchSelf, fusedSelf, fusedWallMs float64
}

// coverage is the sum of the layer self times along the workload's
// request path over the median latency the workload's clients saw: the
// best decile across windows of the window's median (for fleet_open, of
// the requests with a new key, which are the ones that travel the whole
// path).
func (l *ladderResult) coverage(wl workload, segs []segment) float64 {
	var keep func(*sample) bool
	if wl.name == "fleet_open" {
		keep = func(s *sample) bool { return s.fresh }
	}
	var p50s []float64
	for i := range segs {
		for _, w := range cut(&segs[i], wl.window, keep) {
			p50s = append(p50s, w.p50ms)
		}
	}
	miss := l.serveMissSelf + l.batchMissSelf + l.evidenceSelf + l.traceroute + l.solve
	var layers float64
	switch wl.name {
	case "solve_cold":
		layers = l.netHopMiss + miss + l.fanout
	case "cache_hot":
		layers = l.netHop + l.serveHitSelf + l.batchHit
	case "batch_stream":
		layers = l.netHopBatch + l.serveBatchSelf + l.fusedSelf + l.fusedWallMs
	case "fleet_open":
		layers = l.netHopMiss + l.frontSelf + l.routerSelf + l.proxyHop + miss + l.fanoutPaced
	}
	return ratio(layers, best(p50s, false))
}

type ladder struct {
	b       *bench
	tr      *tracer
	ctx     context.Context
	nextReq int
}

// rung is one depth of a ladder: fn performs sample i and returns when
// the timed call started and ended. parent names the rung one level up
// ("" for the outermost).
type rung struct {
	name, parent string
	fn           func(i int) (start, end time.Time, err error)
}

// climb runs samples 0..n-1, each through every rung in order before
// the next sample starts, so that the rungs of one sample see the same
// machine state and their differences are not at the mercy of a
// disturbance that lasts longer than a sample. It returns each rung's
// durations in milliseconds and each rung's span id per sample.
func (l *ladder) climb(n int, rungs []rung) (ms map[string][]float64, ids map[string][]int, err error) {
	ms = make(map[string][]float64, len(rungs))
	ids = make(map[string][]int, len(rungs))
	for i := 0; i < n; i++ {
		for _, r := range rungs {
			start, end, err := r.fn(i)
			if err != nil {
				return nil, nil, fmt.Errorf("%s sample %d: %w", r.name, i, err)
			}
			var parent, req int
			if r.parent == "" {
				l.nextReq++
				req = ladderReqBase + l.nextReq
			} else {
				parent = ids[r.parent][i]
				req = l.tr.reqOf(parent)
			}
			ms[r.name] = append(ms[r.name], float64(end.Sub(start))/1e6)
			ids[r.name] = append(ids[r.name], l.tr.add(r.name, parent, req, start, end))
		}
	}
	return ms, ids, nil
}

// ladderReqBase keeps the request ids of ladder samples apart from the
// ids of the workload's own requests, which count up from 1.
const ladderReqBase = 1 << 30

// sampleTarget is the target of ladder sample i: the run's seeded order,
// the same at every rung.
func (l *ladder) sampleTarget(i int) string { return l.b.order[i%len(l.b.order)] }

func (l *ladder) handlerCall(h http.Handler, path string, body []byte) (start, end time.Time, out []byte, err error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(l.ctx)
	rec := httptest.NewRecorder()
	start = time.Now()
	h.ServeHTTP(rec, req)
	end = time.Now()
	if rec.Code != http.StatusOK {
		return start, end, nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return start, end, rec.Body.Bytes(), nil
}

func (l *ladder) checkScalar(body []byte, target string) error {
	_, err := l.b.orc.checkBody(body, target, false)
	return err
}

// runLadder times every rung and fills the per-layer metrics that come
// from it.
func runLadder(b *bench, tr *tracer, m *metricSet) (*ladderResult, error) {
	// Cancellable, so that a call made below the HTTP server binds its
	// prober to the context exactly as a served request does.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l := &ladder{b: b, tr: tr, ctx: ctx}
	res := &ladderResult{}
	if err := l.scalar(res, m); err != nil {
		return nil, err
	}
	if err := l.hits(res, m); err != nil {
		return nil, err
	}
	if err := l.fused(res, m); err != nil {
		return nil, err
	}
	if err := l.cluster(res, m); err != nil {
		return nil, err
	}
	l.micro(m)
	return res, nil
}

// scalar is the single-localization ladder on the unpaced node, from the
// loopback client down to the raster passes.
func (l *ladder) scalar(res *ladderResult, m *metricSet) error {
	b, n := l.b, l.b.cfg.ladderN
	nd := b.node
	c, err := dial(nd.addr)
	if err != nil {
		return err
	}
	defer c.close()
	loc := nd.manager.CurrentLocalizer()
	sched := loc.MeasureScheduler()
	pctx := core.NewProjectionContext(b.sub.survey)
	prober := probe.WithContext(l.ctx, nd.prober)

	// Warm the node so the first sample does not pay the lazy land masks.
	for i := 0; i < len(b.order); i++ {
		if _, _, err := c.post("/v2/localize", localizeBody(nil, l.sampleTarget(i), b.freshKey()), nil); err != nil {
			return err
		}
	}

	var respBytes, constraints []float64
	var mallocs, bytesAlloc uint64
	var result *core.Result // the current sample's, for the rungs beneath LocalizeWith
	nLm := len(pctx.Addrs)
	rtts, perrs := make([]float64, nLm), make([]error, nLm)
	const tracerouteLandmarks = 3 // core.Config.TracerouteLandmarks default
	hops, terrs := make([][]probe.Hop, tracerouteLandmarks), make([]error, tracerouteLandmarks)
	// The solver runs on the sample's own constraint set, under the
	// options the localizer passes it; the area check keeps this replica
	// honest should those options ever change.
	const minRegionAreaKm2 = 25000 // core.Config.MinRegionAreaKm2 default
	sopts := core.SolverOpts{MinAreaKm2: minRegionAreaKm2, LandRegions: pctx.Land, Masks: loc.LandMasks()}
	var passes []passTimes

	ms, ids, err := l.climb(n, []rung{
		{"client.http", "", func(i int) (time.Time, time.Time, error) {
			t := l.sampleTarget(i)
			body := localizeBody(nil, t, b.freshKey())
			start := time.Now()
			status, out, err := c.post("/v2/localize", body, nil)
			end := time.Now()
			if err != nil {
				return start, end, err
			}
			if status != http.StatusOK {
				return start, end, fmt.Errorf("status %d: %s", status, out)
			}
			respBytes = append(respBytes, float64(len(out)))
			return start, end, l.checkScalar(out, t)
		}},
		{"serve.handler", "client.http", func(i int) (time.Time, time.Time, error) {
			t := l.sampleTarget(i)
			start, end, out, err := l.handlerCall(nd.handler, "/v2/localize", localizeBody(nil, t, b.freshKey()))
			if err != nil {
				return start, end, err
			}
			return start, end, l.checkScalar(out, t)
		}},
		{"batch.Engine.LocalizeItem", "serve.handler", func(i int) (time.Time, time.Time, error) {
			opts := keyOptions(b.freshKey())
			start := time.Now()
			item := nd.engine.LocalizeItem(l.ctx, l.sampleTarget(i), opts...)
			return start, time.Now(), item.Err
		}},
		{"core.Localizer.LocalizeWith", "batch.Engine.LocalizeItem", func(i int) (time.Time, time.Time, error) {
			o := core.NewLocalizeOptions(keyOptions(b.freshKey())...)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			r, err := loc.LocalizeWith(l.ctx, l.sampleTarget(i), &o)
			end := time.Now()
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			bytesAlloc += m1.TotalAlloc - m0.TotalAlloc
			result = r
			return start, end, err
		}},
		{"measure.Scheduler.PingMinInto", "core.Localizer.LocalizeWith", func(i int) (time.Time, time.Time, error) {
			start := time.Now()
			sched.PingMinInto(l.ctx, prober, pctx.Addrs, l.sampleTarget(i), probesPerPing, b.sub.survey.Epoch, rtts, perrs)
			return start, time.Now(), firstError(perrs)
		}},
		{"measure.Scheduler.TracerouteInto", "core.Localizer.LocalizeWith", func(i int) (time.Time, time.Time, error) {
			srcs := nearestLandmarks(result.RTTs, pctx.Addrs, tracerouteLandmarks)
			start := time.Now()
			sched.TracerouteInto(l.ctx, prober, srcs, l.sampleTarget(i), hops, terrs)
			return start, time.Now(), firstError(terrs)
		}},
		{"core.Solve", "core.Localizer.LocalizeWith", func(i int) (time.Time, time.Time, error) {
			start := time.Now()
			sol, err := core.Solve(result.Constraints, sopts)
			end := time.Now()
			if err != nil {
				return start, end, err
			}
			if got, want := sol.Region.Area(), result.AreaKm2; math.Abs(got-want) > 1e-9*want {
				return start, end, fmt.Errorf("solver replica area %v, localizer %v: solver options drifted", got, want)
			}
			constraints = append(constraints, float64(len(result.Constraints)))
			return start, end, nil
		}},
		// Inside the solver: the raster passes, replayed call by call. The
		// rung's own span is the whole replay; replaySolve adds one span
		// per geo call beneath it.
		{"core.Solve.replay", "core.Solve", func(i int) (time.Time, time.Time, error) {
			start := time.Now()
			p, region := replaySolve(result.Constraints, sopts)
			end := time.Now()
			if got, want := region.Area(), result.AreaKm2; math.Abs(got-want) > 1e-9*want {
				return start, end, fmt.Errorf("replayed raster passes give area %v, localizer %v: the solver's pass structure drifted from replaySolve", got, want)
			}
			passes = append(passes, p)
			return start, end, nil
		}},
	})
	if err != nil {
		return err
	}
	var fill, mask, census, extract, cells, levels, grids []float64
	for i, p := range passes {
		parent := ids["core.Solve.replay"][i]
		for _, c := range p.calls {
			l.tr.add(c.name, parent, l.tr.reqOf(parent), c.start, c.end)
		}
		fill = append(fill, p.fill)
		mask = append(mask, p.mask)
		census = append(census, p.census)
		extract = append(extract, p.extract)
		cells = append(cells, p.cells)
		levels = append(levels, p.levels)
		grids = append(grids, p.grids)
	}

	// serve's own decode and encode, on a request and a result like the
	// ones above.
	body := localizeBody(nil, l.sampleTarget(0), firstFreshKey)
	item := batch.Item{Target: result.Target, Result: result}
	decodeUs := timeEach(2000, func() {
		var req struct {
			Target  string             `json:"target"`
			Options *serve.WireOptions `json:"options"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		_ = dec.Decode(&req)
		_, _ = req.Options.Options()
	})
	encodeUs := timeEach(2000, func() { _, _ = json.Marshal(serve.ToTargetResultV2(item)) })

	localizeMs := ms["core.Localizer.LocalizeWith"]
	fanoutMs, trMs, solveMs := ms["measure.Scheduler.PingMinInto"], ms["measure.Scheduler.TracerouteInto"], ms["core.Solve"]
	// Over loopback a request that takes milliseconds costs more than a
	// cached one: the client's processor has gone idle by the time the
	// answer comes, and the virtual machine takes its time waking it.
	res.netHopMiss = median(diff(ms["client.http"], ms["serve.handler"]))
	res.serveMissSelf = median(diff(ms["serve.handler"], ms["batch.Engine.LocalizeItem"]))
	res.batchMissSelf = median(diff(ms["batch.Engine.LocalizeItem"], localizeMs))
	res.fanout, res.traceroute, res.solve = median(fanoutMs), median(trMs), median(solveMs)
	res.evidenceSelf = median(diff(diff(diff(localizeMs, fanoutMs), trMs), solveMs))

	m.set("net.client_hop_miss_us", 1e3*res.netHopMiss)
	m.set("serve.miss_self_us", 1e3*res.serveMissSelf)
	m.set("serve.decode_us", decodeUs)
	m.set("serve.encode_us", encodeUs)
	m.set("serve.resp_bytes", median(respBytes))
	m.set("batch.miss_self_us", 1e3*res.batchMissSelf)
	m.set("core.localize_ms", median(localizeMs))
	m.set("core.evidence_self_ms", res.evidenceSelf)
	m.set("core.solve_ms", res.solve)
	inside := median(fill) + median(mask) + median(census) + median(extract)
	m.set("core.solve_unattributed_frac", 1-ratio(inside/1e3, res.solve))
	m.set("core.landmask_apply_us", median(mask))
	m.set("core.constraints_per_req", median(constraints))
	m.set("core.allocs_per_localize", float64(mallocs)/float64(n))
	m.set("core.bytes_per_localize", float64(bytesAlloc)/float64(n))
	m.set("geo.fill_us", median(fill))
	m.set("geo.census_us", median(census))
	m.set("geo.extract_us", median(extract))
	m.set("geo.grid_cells", median(cells))
	m.set("geo.levels_per_grid", ratio(sum(levels), sum(grids)))
	m.set("measure.fanout_ms", res.fanout)
	m.set("measure.traceroute_ms", res.traceroute)
	return nil
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// diff subtracts one rung from the rung above it, sample by sample.
// Sample i asks about the same target at every rung, so the median of
// these differences is free of the target-to-target spread that the
// difference of the two medians would carry.
func diff(upper, lower []float64) []float64 {
	out := make([]float64, len(upper))
	for i := range upper {
		out[i] = upper[i] - lower[i]
	}
	return out
}

// nearestLandmarks returns the addresses of the n landmarks with the
// lowest RTT to the target, the sources the router evidence traceroutes
// from.
func nearestLandmarks(rtts []float64, addrs []string, n int) []string {
	idx := make([]int, len(rtts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rtts[idx[a]] < rtts[idx[b]] })
	out := make([]string, n)
	for i := range out {
		out[i] = addrs[idx[i]]
	}
	return out
}

// timeEach returns the median duration of fn in microseconds over n
// calls.
func timeEach(n int, fn func()) float64 {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		fn()
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us)
}

// passTimes is what one solve spent in each raster call, microseconds
// summed over its passes.
type passTimes struct {
	fill, mask, census, extract float64
	cells, levels, grids        float64
	calls                       []geoCall
}

// geoCall is one timed raster call of a replayed solve.
type geoCall struct {
	name       string
	start, end time.Time
}

// replaySolve repeats the geometry of core.Solve's raster engine on one
// constraint set — the coarse pass over the constraints' extent, then
// the fine pass around the coarse answer — timing each geo call. It
// returns the region the passes end in, which the caller holds against
// the localizer's own answer: the constants and the pass structure here
// are a copy of the solver's, and a solver that changes must fail this
// rung, not leave it timing the old algorithm.
func replaySolve(cs []core.Constraint, opts core.SolverOpts) (passTimes, *geo.Region) {
	const coarseCells, fineCellKm = 384, 4.0 // core.SolverOpts defaults
	var p passTimes
	pass := func(min, max geo.Vec2, cellKm float64) *geo.Region {
		t0 := time.Now()
		g := geo.NewGrid(min, max, cellKm)
		defer g.Release()
		for _, c := range cs {
			if c.Region.IsEmpty() {
				continue
			}
			w := c.Weight
			if c.Kind == core.Negative {
				w = -w
			}
			g.AddRegionBatched(c.Region, w)
		}
		g.FlushAdds()
		t1 := time.Now()
		opts.Masks.Apply(g, opts.LandRegions, -math.MaxFloat64)
		t2 := time.Now()
		levels, cells := g.LevelSets()
		t3 := time.Now()
		level := 0.0
		for i, lv := range levels {
			if lv <= 0 {
				break
			}
			level = lv
			if float64(cells[i])*g.CellArea() >= opts.MinAreaKm2 {
				break
			}
		}
		region := geo.EmptyRegion()
		t4 := t3
		if level > 0 {
			region = g.Threshold(level)
			t4 = time.Now()
		}
		p.calls = append(p.calls,
			geoCall{"geo.Grid.AddRegionBatched+FlushAdds", t0, t1},
			geoCall{"core.LandMaskCache.Apply", t1, t2},
			geoCall{"geo.Grid.LevelSets", t2, t3},
			geoCall{"geo.Grid.Threshold", t3, t4})
		p.fill += float64(t1.Sub(t0)) / 1e3
		p.mask += float64(t2.Sub(t1)) / 1e3
		p.census += float64(t3.Sub(t2)) / 1e3
		p.extract += float64(t4.Sub(t3)) / 1e3
		p.cells += float64(g.W * g.H)
		p.levels += float64(len(levels))
		p.grids++
		return region
	}

	first := true
	var min, max geo.Vec2
	for _, c := range cs {
		if c.Kind != core.Positive || c.Region.IsEmpty() {
			continue
		}
		lo, hi, ok := c.Region.BoundingBox()
		if !ok {
			continue
		}
		if first {
			min, max, first = lo, hi, false
			continue
		}
		min = geo.V2(math.Min(min.X, lo.X), math.Min(min.Y, lo.Y))
		max = geo.V2(math.Max(max.X, hi.X), math.Max(max.Y, hi.Y))
	}
	span := math.Max(max.X-min.X, max.Y-min.Y)
	coarse := fineCellKm
	if raw := span / coarseCells; raw > fineCellKm {
		coarse = fineCellKm * math.Exp2(math.Max(0, math.Round(math.Log2(raw/fineCellKm))))
	}
	region := pass(min, max, coarse)
	rmin, rmax, ok := region.BoundingBox()
	if region.IsEmpty() || !ok {
		return p, region
	}
	pad := 4 * coarse
	rmin, rmax = geo.V2(rmin.X-pad, rmin.Y-pad), geo.V2(rmax.X+pad, rmax.Y+pad)
	fine := fineCellKm
	for (rmax.X-rmin.X)*(rmax.Y-rmin.Y)/(fine*fine) > 1<<20 {
		fine *= 2
	}
	if fine < coarse {
		if refined := pass(rmin, rmax, fine); !refined.IsEmpty() {
			region = refined
		}
	}
	return p, region
}

// hits is the cached-answer ladder: a primed key asked for over
// loopback, through the handler, and at the engine.
func (l *ladder) hits(res *ladderResult, m *metricSet) error {
	b := l.b
	nd := b.node
	c, err := dial(nd.addr)
	if err != nil {
		return err
	}
	defer c.close()
	for _, t := range b.order {
		if _, _, err := c.post("/v2/localize", localizeBody(nil, t, 0), nil); err != nil {
			return err
		}
	}
	var body []byte
	ms, _, err := l.climb(20*b.cfg.ladderN, []rung{
		{"client.http.hit", "", func(i int) (time.Time, time.Time, error) {
			t := l.sampleTarget(i)
			body = localizeBody(body[:0], t, 0)
			start := time.Now()
			status, out, err := c.post("/v2/localize", body, nil)
			end := time.Now()
			if err != nil || status != http.StatusOK {
				return start, end, fmt.Errorf("status %d: %v", status, err)
			}
			_, err = b.orc.checkBody(out, t, true)
			return start, end, err
		}},
		{"serve.handler.hit", "client.http.hit", func(i int) (time.Time, time.Time, error) {
			t := l.sampleTarget(i)
			start, end, out, err := l.handlerCall(nd.handler, "/v2/localize", localizeBody(nil, t, 0))
			if err != nil {
				return start, end, err
			}
			_, err = b.orc.checkBody(out, t, true)
			return start, end, err
		}},
		{"batch.Engine.LocalizeItem.hit", "serve.handler.hit", func(i int) (time.Time, time.Time, error) {
			start := time.Now()
			item := nd.engine.LocalizeItem(l.ctx, l.sampleTarget(i))
			end := time.Now()
			if item.Err == nil && !item.Cached {
				return start, end, fmt.Errorf("expected a cache hit")
			}
			return start, end, item.Err
		}},
	})
	if err != nil {
		return err
	}
	res.netHop = median(diff(ms["client.http.hit"], ms["serve.handler.hit"]))
	res.serveHitSelf = median(diff(ms["serve.handler.hit"], ms["batch.Engine.LocalizeItem.hit"]))
	res.batchHit = median(ms["batch.Engine.LocalizeItem.hit"])
	m.set("net.client_hop_us", 1e3*res.netHop)
	m.set("serve.hit_self_us", 1e3*res.serveHitSelf)
	m.set("batch.hit_us", 1e3*res.batchHit)
	return nil
}

// fused is the batch ladder: 16 targets under one fresh fingerprint,
// over loopback, through the handler, at Engine.Collect and at the
// localizer's fused entry point.
func (l *ladder) fused(res *ladderResult, m *metricSet) error {
	b := l.b
	nd := b.node
	n := (b.cfg.ladderN + 2) / 3
	c, err := dial(nd.addr)
	if err != nil {
		return err
	}
	defer c.close()
	loc := nd.manager.CurrentLocalizer()
	var firstMs []float64
	var mallocs uint64
	noVisit := func(string, float64) {}
	ms, _, err := l.climb(n, []rung{
		{"client.http.batch", "", func(i int) (time.Time, time.Time, error) {
			body := batchBody(nil, b.order, b.freshKey())
			var first time.Time
			start := time.Now()
			status, out, err := c.post("/v2/localize/batch", body, &first)
			end := time.Now()
			if err != nil || status != http.StatusOK {
				return start, end, fmt.Errorf("status %d: %v", status, err)
			}
			firstMs = append(firstMs, float64(first.Sub(start))/1e6)
			return start, end, b.orc.checkStream(out, b.order, noVisit)
		}},
		{"serve.handler.batch", "client.http.batch", func(i int) (time.Time, time.Time, error) {
			start, end, out, err := l.handlerCall(nd.handler, "/v2/localize/batch", batchBody(nil, b.order, b.freshKey()))
			if err != nil {
				return start, end, err
			}
			return start, end, b.orc.checkStream(out, b.order, noVisit)
		}},
		{"batch.Engine.Collect", "serve.handler.batch", func(i int) (time.Time, time.Time, error) {
			opts := keyOptions(b.freshKey())
			start := time.Now()
			_, errs := nd.engine.Collect(l.ctx, b.order, opts...)
			return start, time.Now(), firstError(errs)
		}},
		{"core.Localizer.LocalizeBatchWith", "batch.Engine.Collect", func(i int) (time.Time, time.Time, error) {
			o := core.NewLocalizeOptions(keyOptions(b.freshKey())...)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			_, errs := loc.LocalizeBatchWith(l.ctx, b.order, engineWorkers, &o)
			end := time.Now()
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			return start, end, firstError(errs)
		}},
	})
	if err != nil {
		return err
	}
	collectMs, fusedMs := ms["batch.Engine.Collect"], ms["core.Localizer.LocalizeBatchWith"]
	res.netHopBatch = median(diff(ms["client.http.batch"], ms["serve.handler.batch"]))
	res.serveBatchSelf = median(diff(ms["serve.handler.batch"], collectMs))
	res.fusedSelf = median(diff(collectMs, fusedMs))
	res.fusedWallMs = median(fusedMs)
	perBatch := float64(len(b.order))
	m.set("serve.batch_self_ms", res.serveBatchSelf)
	m.set("serve.batch_first_item_ms", median(firstMs))
	m.set("batch.fused_self_ms", res.fusedSelf)
	m.set("core.fused_ms_per_target", res.fusedWallMs/perBatch)
	m.set("core.fused_allocs_per_target", float64(mallocs)/float64(n)/perBatch)
	return nil
}

// cluster is the fleet ladder: the front door over loopback, its
// handler, the router, the node client's proxy hop and the node's
// handler, then the cluster's two cache reads, each its own root. The
// cluster's own hops cost tens to hundreds of microseconds, which the
// difference of two 5 ms localizations cannot resolve on a shared
// machine, so every hop rung asks for a key that was just computed on
// every node and is in no front-door cache: the request travels the
// whole miss path through the cluster tier and ends in a node LRU hit,
// and what is left to subtract is the hops themselves. The paced fan-out
// that fleet_open's latency is mostly made of is timed on its own.
func (l *ladder) cluster(res *ladderResult, m *metricSet) error {
	b := l.b
	fl := b.fleet
	n := (2*b.cfg.ladderN + 2) / 3
	c, err := dial(fl.addr)
	if err != nil {
		return err
	}
	defer c.close()
	pick := func(i int) int { return i % len(fl.nodes) }
	// primed computes a fresh key for target on every node (pacing off)
	// and returns it.
	primed := func(target string) (int, error) {
		k := b.freshKey()
		for _, nc := range fl.clients {
			if _, err := nc.LocalizeV2(l.ctx, target, keyWireOptions(k)); err != nil {
				return 0, err
			}
		}
		return k, nil
	}
	var routedKey int // the key the router last answered: now in the front door's L1
	var nodeKey cluster.Key
	l1Before := fl.router.Stats(l.ctx).Router.L1Hits

	fl.setPace(0)
	defer fl.setPace(fleetPace)
	ms, _, err := l.climb(n, []rung{
		{"client.http.front", "", func(i int) (time.Time, time.Time, error) {
			t := l.sampleTarget(i)
			k, err := primed(t)
			if err != nil {
				return time.Time{}, time.Time{}, err
			}
			body := localizeBody(nil, t, k)
			start := time.Now()
			status, out, err := c.post("/v2/localize", body, nil)
			end := time.Now()
			if err != nil || status != http.StatusOK {
				return start, end, fmt.Errorf("status %d: %v", status, err)
			}
			_, err = b.orc.checkBody(out, t, true)
			return start, end, err
		}},
		{"cluster.Front.handler", "client.http.front", func(i int) (time.Time, time.Time, error) {
			t := l.sampleTarget(i)
			k, err := primed(t)
			if err != nil {
				return time.Time{}, time.Time{}, err
			}
			start, end, out, err := l.handlerCall(fl.handler, "/v2/localize", localizeBody(nil, t, k))
			if err != nil {
				return start, end, err
			}
			_, err = b.orc.checkBody(out, t, true)
			return start, end, err
		}},
		{"cluster.Router.Localize", "cluster.Front.handler", func(i int) (time.Time, time.Time, error) {
			k, err := primed(l.sampleTarget(i))
			if err != nil {
				return time.Time{}, time.Time{}, err
			}
			routedKey = k
			wo := keyWireOptions(k)
			start := time.Now()
			tr, err := fl.router.Localize(l.ctx, l.sampleTarget(i), wo)
			end := time.Now()
			if err == nil && !tr.Cached {
				err = fmt.Errorf("expected a node cache hit")
			}
			return start, end, err
		}},
		{"cluster.NodeClient.LocalizeV2", "cluster.Router.Localize", func(i int) (time.Time, time.Time, error) {
			k, err := primed(l.sampleTarget(i))
			if err != nil {
				return time.Time{}, time.Time{}, err
			}
			wo := keyWireOptions(k)
			start := time.Now()
			tr, err := fl.clients[pick(i)].LocalizeV2(l.ctx, l.sampleTarget(i), wo)
			end := time.Now()
			if err == nil && !tr.Cached {
				err = fmt.Errorf("expected a node cache hit")
			}
			nodeKey = cluster.Key{Target: l.sampleTarget(i), Fingerprint: keyFingerprint(k), Epoch: tr.Epoch}
			return start, end, err
		}},
		{"serve.handler.node", "cluster.NodeClient.LocalizeV2", func(i int) (time.Time, time.Time, error) {
			t := l.sampleTarget(i)
			k, err := primed(t)
			if err != nil {
				return time.Time{}, time.Time{}, err
			}
			start, end, out, err := l.handlerCall(fl.nodes[pick(i)].handler, "/v2/localize", localizeBody(nil, t, k))
			if err != nil {
				return start, end, err
			}
			_, err = b.orc.checkBody(out, t, true)
			return start, end, err
		}},
		{"cluster.Router.Localize.l1_hit", "", func(i int) (time.Time, time.Time, error) {
			wo := keyWireOptions(routedKey)
			start := time.Now()
			_, err := fl.router.Localize(l.ctx, l.sampleTarget(i), wo)
			return start, time.Now(), err
		}},
		{"cluster.NodeClient.CacheLookup", "", func(i int) (time.Time, time.Time, error) {
			start := time.Now()
			_, ok, err := fl.clients[pick(i)].CacheLookup(l.ctx, nodeKey)
			end := time.Now()
			if err == nil && !ok {
				err = fmt.Errorf("expected a peer cache hit")
			}
			return start, end, err
		}},
	})
	if err != nil {
		return err
	}
	if got := fl.router.Stats(l.ctx).Router.L1Hits - l1Before; got != uint64(n) {
		return fmt.Errorf("cluster.Router.Localize.l1_hit: %d front-door L1 hits in %d repeats", got, n)
	}

	fl.setPace(fleetPace)
	pctx := core.NewProjectionContext(b.sub.survey)
	rtts, perrs := make([]float64, len(pctx.Addrs)), make([]error, len(pctx.Addrs))
	paced, _, err := l.climb(n, []rung{
		{"measure.Scheduler.PingMinInto.paced", "", func(i int) (time.Time, time.Time, error) {
			nd := fl.nodes[pick(i)]
			sched := nd.manager.CurrentLocalizer().MeasureScheduler()
			start := time.Now()
			sched.PingMinInto(l.ctx, probe.WithContext(l.ctx, nd.prober), pctx.Addrs, l.sampleTarget(i), probesPerPing, b.sub.survey.Epoch, rtts, perrs)
			return start, time.Now(), firstError(perrs)
		}},
	})
	if err != nil {
		return err
	}
	routerMs, proxyMs := ms["cluster.Router.Localize"], ms["cluster.NodeClient.LocalizeV2"]
	res.frontSelf = median(diff(ms["cluster.Front.handler"], routerMs))
	res.routerSelf = median(diff(routerMs, proxyMs))
	res.proxyHop = median(diff(proxyMs, ms["serve.handler.node"]))
	res.fanoutPaced = median(paced["measure.Scheduler.PingMinInto.paced"])
	m.set("cluster.front_self_us", 1e3*res.frontSelf)
	m.set("cluster.router_self_us", 1e3*res.routerSelf)
	m.set("cluster.proxy_hop_us", 1e3*res.proxyHop)
	m.set("cluster.l1_hit_us", 1e3*median(ms["cluster.Router.Localize.l1_hit"]))
	m.set("cluster.peer_fetch_us", 1e3*median(ms["cluster.NodeClient.CacheLookup"]))
	m.set("measure.fanout_paced_ms", res.fanoutPaced)
	return nil
}

// micro times the calls too short for a rung of their own, as the mean
// over a tight loop.
func (l *ladder) micro(m *metricSet) {
	b := l.b
	const iters = 20000
	perCallNs := func(fn func(i int)) float64 {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		return float64(time.Since(t0)) / iters
	}
	ring := b.fleet.router.Ring()
	m.set("cluster.ring_owner_ns", perCallNs(func(i int) { ring.Owner(l.sampleTarget(i)) }))
	opts := keyOptions(firstFreshKey)
	m.set("batch.fingerprint_ns", perCallNs(func(int) {
		o := core.NewLocalizeOptions(opts...)
		_ = o.Fingerprint()
	}))
	src := b.sub.landmarks[0].Addr
	m.set("probe.ping_ns", perCallNs(func(i int) { _, _ = b.sub.sim.Ping(src, l.sampleTarget(i), probesPerPing) }))
}
