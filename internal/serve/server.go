// Package serve is the HTTP serving layer of the Octant daemon: the
// route table, wire formats, and admin surface that cmd/octant-serve
// mounts over a batch engine and a survey lifecycle manager. It lives in
// its own package (rather than inside the binary) so the cluster tier
// can embed real serving nodes — in-process fleets for tests and the
// soak harness — and so the octant-cluster front door speaks exactly
// these wire types.
//
// Endpoints:
//
//	POST /v2/localize        {"target", "options"}         → result + epoch (+ provenance)
//	POST /v2/localize/batch  {"targets", "options"}        → NDJSON stream of results
//	POST /v1/survey/refresh  {"landmarks": ["name", …]?}   → reprobe + recalibrate
//	POST /v1/survey/install  (survey snapshot JSON)        → validate + publish a pushed epoch
//	GET  /v1/survey/snapshot                               → current epoch as snapshot JSON
//	GET  /v1/survey                                        → epoch, κ, swap/refresh counters
//	GET  /v1/cache/lookup?target=&fp=&epoch=               → LRU read without measuring, for the benchmark harness (404 on miss)
//	GET  /v1/healthz                                       → liveness
//	GET  /v1/readyz                                        → readiness (epoch published, not draining)
//	GET  /v1/stats                                         → engine counters and latency quantiles
//	GET  /debug/pprof/…                                    → live profiling (Options.Pprof)
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/geo"
	"octant/internal/lifecycle"
	"octant/internal/measure"
)

// Options tunes a Server. The zero value is usable.
type Options struct {
	// MaxBatch bounds targets per batch request (0 = default 1024).
	MaxBatch int
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/ so
	// production hot paths can be profiled live.
	Pprof bool
}

// Server is the HTTP surface over a batch engine and its survey lifecycle
// manager. All state it touches is either immutable (epoch snapshots) or
// internally synchronized (the engine, the manager), so the handlers need
// no locking of their own.
type Server struct {
	engine  *batch.Engine
	manager *lifecycle.Manager
	started time.Time
	opts    Options
	// draining flips readiness off while process shutdown quiesces the
	// node, so the cluster router routes around it before the listener
	// closes.
	draining atomic.Bool
}

// New builds a Server over an engine and a lifecycle manager.
func New(engine *batch.Engine, manager *lifecycle.Manager, opts Options) *Server {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 1024
	}
	return &Server{engine: engine, manager: manager, started: time.Now(), opts: opts}
}

// Engine returns the batch engine the server fronts.
func (s *Server) Engine() *batch.Engine { return s.engine }

// Manager returns the lifecycle manager the server fronts.
func (s *Server) Manager() *lifecycle.Manager { return s.manager }

// SetDraining flips the node's readiness. The process shutdown path sets
// it before the listener closes so fleet routers stop sending new work a
// beat before connections start being refused.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v2/localize", s.localizeHandler(false))
	mux.HandleFunc("/v2/localize/batch", s.localizeHandler(true))
	mux.HandleFunc("/v1/survey", s.handleSurvey)
	mux.HandleFunc("/v1/survey/refresh", s.handleRefresh)
	mux.HandleFunc("/v1/survey/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/survey/install", s.handleInstall)
	mux.HandleFunc("/v1/cache/lookup", s.handleCacheLookup)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	if s.opts.Pprof {
		// Explicit registration: the daemon serves its own mux, so the
		// side-effect registrations on http.DefaultServeMux from importing
		// net/http/pprof never reach clients unless mounted here.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// WriteJSON answers with v as a JSON document.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with the {"error": "..."} document every Octant
// endpoint — node or front door — reports failures in.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// --- v2 wire format ---
//
// The v2 surface maps request bodies 1:1 onto the core.LocalizeOption
// set: every knob a library caller can turn, a wire caller can too.

// WireHint is one exogenous positive prior (core.Hint) on the wire.
type WireHint struct {
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	RadiusKm float64 `json:"radius_km,omitempty"`
	Weight   float64 `json:"weight,omitempty"`
	Label    string  `json:"label,omitempty"`
}

// WireOptions is the JSON form of a request's options. Zero values mean
// "server default" throughout, so an empty object is a request without
// options. The cluster router decodes it both to validate requests at
// the front door and to derive the options fingerprint its cache tiers
// key on.
type WireOptions struct {
	// Disable lists evidence sources to skip: "latency", "router",
	// "hint", "rdns", "geodb", "geography".
	Disable []string `json:"disable,omitempty"`
	// Weights scales each named source's constraint weights (> 0).
	Weights map[string]float64 `json:"weights,omitempty"`
	// MinAreaKm2 overrides the §2.4 region size threshold.
	MinAreaKm2 float64 `json:"min_area_km2,omitempty"`
	// FineCellKm overrides the solver's fine-pass resolution.
	FineCellKm float64 `json:"fine_cell_km,omitempty"`
	// NegHeightPercentile overrides the negative-constraint height
	// percentile.
	NegHeightPercentile float64 `json:"neg_height_percentile,omitempty"`
	// MinLandmarks sets the degraded-mode quorum: the minimum number of
	// landmarks that must answer before landmark failures degrade the
	// result instead of failing the request (0 = server default).
	MinLandmarks int `json:"min_landmarks,omitempty"`
	// Explain attaches per-source provenance to the response.
	Explain bool `json:"explain,omitempty"`
	// Hints are extra positive priors for the hint source.
	Hints []WireHint `json:"hints,omitempty"`
}

// knownSources guards source names on the wire: a typo must 400, not
// silently no-op.
var knownSources = map[string]bool{
	core.SourceLatency:   true,
	core.SourceRouter:    true,
	core.SourceHint:      true,
	core.SourceRDNS:      true,
	core.SourceGeoDB:     true,
	core.SourceGeography: true,
}

// Resolve checks the wire options (nil = none) and resolves them into
// the request's options and their fingerprint, the one step between a
// decoded body and the engine or the front door's cache key. Defaults
// resolve to (nil, ""). The checks run in a fixed order — disable,
// weights by name, the overrides, hints by index — so one body always
// earns one 400 text. The result shares wo's Weights map, and neither
// side may change it afterwards.
func (wo *WireOptions) Resolve() (*core.LocalizeOptions, string, error) {
	if wo == nil {
		return nil, "", nil
	}
	var o core.LocalizeOptions
	for _, name := range wo.Disable {
		if !knownSources[name] {
			return nil, "", fmt.Errorf("unknown source %q in disable (want latency|router|hint|rdns|geodb|geography)", name)
		}
		if o.Disabled == nil {
			o.Disabled = make(map[string]bool, len(wo.Disable))
		}
		o.Disabled[name] = true
	}
	if err := checkWeights(wo.Weights); err != nil {
		return nil, "", err
	}
	if len(wo.Weights) > 0 {
		o.WeightScale = wo.Weights
	}
	if wo.MinAreaKm2 < 0 || wo.FineCellKm < 0 {
		return nil, "", fmt.Errorf("min_area_km2 and fine_cell_km must be ≥ 0")
	}
	if wo.MinAreaKm2 > 0 {
		o.MinAreaKm2 = wo.MinAreaKm2
	}
	if wo.FineCellKm > 0 {
		o.FineCellKm = wo.FineCellKm
	}
	if p := wo.NegHeightPercentile; p < 0 || p > 100 {
		return nil, "", fmt.Errorf("neg_height_percentile must be in (0, 100], got %v", p)
	}
	o.NegHeightPercentile = wo.NegHeightPercentile
	if wo.MinLandmarks < 0 {
		return nil, "", fmt.Errorf("min_landmarks must be ≥ 0, got %d", wo.MinLandmarks)
	}
	o.MinLandmarks = wo.MinLandmarks
	o.Explain = wo.Explain
	if len(wo.Hints) > 0 {
		o.Hints = make([]core.Hint, len(wo.Hints))
	}
	for i, h := range wo.Hints {
		loc := geo.Pt(h.Lat, h.Lon)
		if !loc.Valid() {
			return nil, "", fmt.Errorf("hint %d: invalid coordinates (%v, %v)", i, h.Lat, h.Lon)
		}
		if h.RadiusKm < 0 || h.RadiusKm > math.Pi*geo.EarthRadiusKm || h.Weight < 0 {
			return nil, "", fmt.Errorf("hint %d: radius_km must be in [0, π·R] and weight ≥ 0", i)
		}
		o.Hints[i] = core.Hint{Loc: loc, RadiusKm: h.RadiusKm, Weight: h.Weight, Label: h.Label}
	}
	fp := o.Fingerprint()
	if fp == "" {
		return nil, "", nil
	}
	resolved := o // escapes; the defaults return above allocate nothing
	return &resolved, fp, nil
}

// checkWeights refuses an unknown source or a scale ≤ 0, reporting the
// first offending name in sorted order whatever order the map walks in.
func checkWeights(weights map[string]float64) error {
	bad, found := "", false
	for name, scale := range weights {
		if (!knownSources[name] || scale <= 0) && (!found || name < bad) {
			bad, found = name, true
		}
	}
	switch {
	case !found:
		return nil
	case !knownSources[bad]:
		return fmt.Errorf("unknown source %q in weights (want latency|router|hint|rdns|geodb|geography)", bad)
	default:
		return fmt.Errorf("weight scale for %q must be > 0, got %v", bad, weights[bad])
	}
}

// Options is Resolve as one functional option, which sets every field of
// the request's options to wo's.
//
// Deprecated: use Resolve, which also returns the fingerprint.
func (wo *WireOptions) Options() ([]core.LocalizeOption, error) {
	o, _, err := wo.Resolve()
	if o == nil {
		return nil, err
	}
	resolved := *o
	resolved.WeightScale = maps.Clone(o.WeightScale)
	return []core.LocalizeOption{func(dst *core.LocalizeOptions) { *dst = resolved }}, nil
}

// TargetResultV2 is the wire form of one localization outcome. Latitude
// and longitude are pointers because an empty estimated region has no
// point (NaN is not representable in JSON). AppendTargetResultV2 writes
// it; the field order and omitempty tags below are its wire contract.
type TargetResultV2 struct {
	Target      string   `json:"target"`
	Lat         *float64 `json:"lat,omitempty"`
	Lon         *float64 `json:"lon,omitempty"`
	AreaKm2     float64  `json:"area_km2,omitempty"`
	HeightMs    float64  `json:"height_ms,omitempty"`
	Constraints int      `json:"constraints,omitempty"`
	EmptyRegion bool     `json:"empty_region,omitempty"`
	Cached      bool     `json:"cached,omitempty"`
	// Degraded marks a result computed from partial evidence: some
	// landmarks failed to answer but the request's quorum held. The
	// failed landmarks ride the provenance (failures list).
	Degraded  bool    `json:"degraded,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
	// Epoch is the survey epoch the result was computed under.
	Epoch uint64 `json:"epoch"`
	// Provenance is the evidence provenance, when the request asked to
	// explain itself.
	Provenance *core.Provenance `json:"provenance,omitempty"`
}

// ToTargetResultV2 converts a batch item to its wire form.
func ToTargetResultV2(item batch.Item) TargetResultV2 {
	tr := TargetResultV2{Target: item.Target, Epoch: item.Epoch}
	if item.Err != nil {
		tr.Error = item.Err.Error()
		return tr
	}
	res := item.Result
	tr.AreaKm2 = res.AreaKm2
	tr.HeightMs = res.TargetHeightMs
	tr.Constraints = len(res.Constraints)
	tr.Cached = item.Cached
	tr.Degraded = res.Degraded
	tr.ElapsedMs = float64(item.Elapsed) / float64(time.Millisecond)
	if math.IsNaN(res.Point.Lat) {
		tr.EmptyRegion = true
	} else {
		lat, lon := res.Point.Lat, res.Point.Lon
		tr.Lat, tr.Lon = &lat, &lon
	}
	tr.Provenance = res.Provenance
	return tr
}

// Request body caps. Localize bodies are a target list plus options —
// MaxBatch host names fit many times over; a survey snapshot carries an
// n² RTT matrix (and a format-1 one every calibration sample besides,
// about 7× that). MaxSnapshotBody is exported
// because the cap binds both directions: what /v1/survey/install accepts
// and what a cluster client will read off /v1/survey/snapshot.
const (
	maxRequestBody  = 1 << 20
	MaxSnapshotBody = 64 << 20
)

// bodyReadTimeout bounds how long a handler waits for its request body
// (HTTPServer bounds only the headers). It is a connection deadline set
// and lifted around each body read rather than a server-wide ReadTimeout,
// so nothing after the body — a batch stream that outlasts it included —
// runs under it.
var bodyReadTimeout = 30 * time.Second

// readBody hands read the request body, capped at limit bytes, under a
// connection read deadline bodyReadTimeout from now, so a client trickling
// its body cannot hold a handler open. read consumes the body, to its end
// or to an error (readValue drains after a decoder that stops short);
// once it has, readBody lifts the deadline. After a failed
// read the deadline stays: the server's own drain of the unread body then
// fails at once and the connection closes.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, read func(io.Reader) error) error {
	rc := http.NewResponseController(w)
	// Setting fails only off a live connection (handler tests), where
	// there is no connection to bound and so nothing to lift.
	set := rc.SetReadDeadline(time.Now().Add(bodyReadTimeout)) == nil
	err := read(http.MaxBytesReader(w, r.Body, limit))
	if err == nil && set {
		_ = rc.SetReadDeadline(time.Time{})
	}
	return err
}

// readValue is readBody for a decode that stops after its value, as
// json.Decoder does: once decode succeeds, it drains the rest of the body
// under the same cap and deadline, so trailing bytes past the cap are a
// 413 and a trickled tail is cut off like a trickled value.
func readValue(w http.ResponseWriter, r *http.Request, limit int64, decode func(io.Reader) error) error {
	return readBody(w, r, limit, func(body io.Reader) error {
		if err := decode(body); err != nil {
			return err
		}
		_, err := io.Copy(io.Discard, body)
		return err
	})
}

// DecodeJSON reads one JSON request body of at most maxRequestBody bytes,
// within bodyReadTimeout, into dst and reports whether it could; on
// failure it has already answered — 413 for a body over the cap, 400 for
// anything else, a body too slow to arrive included. It serves the admin
// endpoints; the localize wire has its own codec (DecodeLocalize).
func DecodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	err := readValue(w, r, maxRequestBody, func(body io.Reader) error {
		return json.NewDecoder(body).Decode(dst)
	})
	if err != nil {
		writeBodyError(w, err, "bad request body")
		return false
	}
	return true
}

// writeBodyError answers a failed body read: 413 when the body outgrew
// its http.MaxBytesReader, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error, what string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	}
	WriteError(w, http.StatusBadRequest, "%s: %v", what, err)
}

// localizeHandler serves a localize route: decode, validate, run the
// request through the engine, encode. Batch routes take "targets" and
// stream one NDJSON line per target in completion order; the single
// route takes "target" and answers one object. Unknown fields are
// refused: a misspelled option key ("weight" for "weights") must 400
// rather than silently run — and cache — the request under server
// defaults.
func (s *Server) localizeHandler(many bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		req, ok := DecodeLocalize(w, r)
		if !ok {
			return
		}
		if !many && req.Target == "" {
			WriteError(w, http.StatusBadRequest, "missing target")
			return
		}
		o, fp, err := req.Options.Resolve()
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad options: %v", err)
			return
		}
		if many {
			s.streamBatch(w, r, req.Targets, o, fp)
			return
		}
		// r.Context() cancels on client disconnect, aborting the
		// measurement at its next probe.
		var item batch.Item
		s.engine.LocalizeBatchWith(r.Context(), []string{req.Target}, o, fp, func(it batch.Item) { item = it })
		if item.Err != nil {
			WriteError(w, http.StatusUnprocessableEntity, "%v", item.Err)
			return
		}
		tr := ToTargetResultV2(item)
		WriteResultV2(w, &tr)
	}
}

// CheckTargets is the one check of a batch request's target list, at a
// node and at the front door alike: a list that is missing, longer than
// maxBatch or holds an empty name is refused, with the status to answer.
func CheckTargets(targets []string, maxBatch int) (int, error) {
	if len(targets) == 0 {
		return http.StatusBadRequest, errors.New("missing targets")
	}
	if len(targets) > maxBatch {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("%d targets exceeds the %d per-request limit", len(targets), maxBatch)
	}
	for i, t := range targets {
		if t == "" {
			return http.StatusBadRequest, fmt.Errorf("empty target at index %d", i)
		}
	}
	return 0, nil
}

// streamBatch validates the target list and streams one result line per
// completed target.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, targets []string, o *core.LocalizeOptions, fp string) {
	if status, err := CheckTargets(targets, s.opts.MaxBatch); err != nil {
		WriteError(w, status, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	b := getWireBuf()
	defer func() { putWireBuf(b) }()
	// The channel holds the whole batch, so the engine never waits on
	// this writer (see batch.Engine.Run).
	items := make(chan batch.Item, len(targets))
	go func() {
		defer close(items)
		s.engine.LocalizeBatchWith(r.Context(), targets, o, fp, func(it batch.Item) { items <- it })
	}()
	for item := range items {
		tr := ToTargetResultV2(item)
		var err error
		if b, err = AppendTargetResultV2(b[:0], &tr); err == nil {
			_, err = w.Write(b)
		}
		if err != nil {
			// Client went away; r.Context() is already cancelled, so the
			// engine winds the batch down on its own (its channel holds
			// every item, nothing blocks on this reader).
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleSurvey serves GET /v1/survey: the lifecycle view — current
// epoch, calibration parameters, swap/refresh counters, and the last
// refresh report.
func (s *Server) handleSurvey(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	WriteJSON(w, http.StatusOK, s.manager.Stats())
}

// handleRefresh serves POST /v1/survey/refresh: reprobe the landmark mesh
// and hot-swap a recalibrated epoch if anything drifted. An optional body
// {"landmarks": ["name", …]} scopes the reprobe to pairs touching the
// named landmarks (on-demand recalibration of suspects at O(k·n) probes);
// an empty or absent body refreshes every pair. Responds with the refresh
// report; traffic is served uninterrupted throughout.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req struct {
		Landmarks []string `json:"landmarks"`
	}
	if r.ContentLength != 0 && !DecodeJSON(w, r, &req) {
		return
	}
	var scope []int
	if len(req.Landmarks) > 0 {
		survey := s.manager.Current().Survey
		// A name maps to every landmark carrying it: landmark sets are
		// validated for uniqueness at load, but if duplicates slip in
		// (e.g. an older snapshot) a scoped refresh must cover them all
		// rather than silently reprobing one.
		byName := make(map[string][]int, survey.N())
		for i, lm := range survey.Landmarks {
			byName[lm.Name] = append(byName[lm.Name], i)
		}
		for _, name := range req.Landmarks {
			idx, ok := byName[name]
			if !ok {
				WriteError(w, http.StatusBadRequest, "unknown landmark %q", name)
				return
			}
			scope = append(scope, idx...)
		}
	}
	report, err := s.manager.Refresh(r.Context(), scope)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, report)
}

// handleSnapshot serves GET /v1/survey/snapshot: the current epoch's
// survey in the versioned-JSON snapshot format — what a cluster
// coordinator pulls from the refresh source and pushes to replicas for a
// probe-free warm adoption.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	e := s.manager.Current()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Octant-Epoch", strconv.FormatUint(e.Number(), 10))
	if err := e.Survey.WriteSnapshot(w); err != nil {
		// Headers are already gone; cut the stream so the client sees a
		// truncated body instead of a silently short snapshot.
		panic(http.ErrAbortHandler)
	}
}

// handleInstall serves POST /v1/survey/install: the request body is a
// survey snapshot (the exact bytes /v1/survey/snapshot emits), validated
// against the serving mesh and published as the current epoch the way a
// refresh publishes one — in-flight requests finish on the epoch they
// borrowed, so the node never leaves service. A snapshot for another mesh
// or an epoch that is not newer is a 409.
func (s *Server) handleInstall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var survey *core.Survey
	err := readValue(w, r, MaxSnapshotBody, func(body io.Reader) (err error) {
		survey, err = core.ReadSnapshot(body)
		return err
	})
	if err != nil {
		writeBodyError(w, err, "bad snapshot")
		return
	}
	e, err := s.manager.Install(survey)
	if err != nil {
		WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"epoch": e.Number()})
}

// handleCacheLookup serves GET /v1/cache/lookup?target=&fp=&epoch=: a
// read of the engine's LRU under the query's batch.Key without measuring
// (the cluster router no longer calls it; the benchmark harness does). A
// hit answers with the wire result (marked cached), a miss is 404. Results from non-cacheable requests
// can never be served here — they are never inserted into the LRU in the
// first place.
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	target := q.Get("target")
	if target == "" {
		WriteError(w, http.StatusBadRequest, "missing target")
		return
	}
	epoch, err := strconv.ParseUint(q.Get("epoch"), 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad epoch: %v", err)
		return
	}
	res, ok := s.engine.Peek(batch.Key{Target: target, Fingerprint: q.Get("fp"), Epoch: epoch})
	if !ok {
		WriteError(w, http.StatusNotFound, "miss")
		return
	}
	tr := ToTargetResultV2(batch.Item{Target: target, Result: res, Epoch: epoch, Cached: true})
	WriteResultV2(w, &tr)
}

// handleHealthz serves GET /v1/healthz — pure liveness: the process is up
// and handling HTTP. Readiness (should this node receive traffic?) is
// /v1/readyz; a draining node is alive but not ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	e := s.manager.Current()
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"landmarks": e.Survey.N(),
		"epoch":     e.Number(),
		"uptime_s":  time.Since(s.started).Seconds(),
	})
}

// Readiness is the readyz wire shape — also what the cluster router's
// health prober decodes.
type Readiness struct {
	Ready bool   `json:"ready"`
	Epoch uint64 `json:"epoch"`
	// Reason explains a not-ready state ("draining").
	Reason string `json:"reason,omitempty"`
}

// handleReadyz serves GET /v1/readyz: 200 when the node should receive
// traffic — a survey epoch is published and the engine is accepting work
// — and 503 while draining for shutdown. The cluster router keys off
// this, not healthz: a draining node is still alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := Readiness{Ready: !s.draining.Load(), Epoch: s.manager.Current().Number()}
	status := http.StatusOK
	if !rd.Ready {
		rd.Reason = "draining"
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, rd)
}

// handleStats serves GET /v1/stats: the engine's counters, cache hit
// rate, in-flight count and latency quantiles, plus the measurement
// scheduler's probe counters under "measure" (consumers
// decoding into batch.Stats are unaffected — the embedded fields keep
// their keys).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, struct {
		batch.Stats
		Measure measure.Stats `json:"measure"`
	}{s.engine.Stats(), s.manager.CurrentLocalizer().MeasureScheduler().Stats()})
}
