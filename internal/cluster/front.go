package cluster

import (
	"net/http"

	"octant/internal/serve"
)

// Front is the cluster front door's HTTP surface: the client-facing
// localization API (served through the Router) plus the operator surface
// (merged stats, ring view, rollout trigger). It deliberately speaks the
// same /v2 wire format as a single node, so clients cannot tell a fleet
// from one process.
//
// Endpoints:
//
//	POST /v2/localize        {"target", "options"}  → routed result
//	POST /v2/localize/batch  {"targets", "options"} → NDJSON stream (epoch-coherent)
//	GET  /v1/stats                                  → merged router + per-node stats
//	GET  /v1/cluster                                → ring members, loads, readiness
//	POST /v1/rollout         {"skip_refresh"?}      → coordinated epoch rollout
//	GET  /v1/healthz                                → front-door liveness
//	GET  /v1/readyz                                 → 200 when ≥ 1 node is ready
type Front struct {
	router *Router
	coord  *Coordinator
}

// NewFront wires the front door over a router and a coordinator.
func NewFront(router *Router, coord *Coordinator) *Front {
	return &Front{router: router, coord: coord}
}

// Handler builds the front door's route table.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v2/localize", f.localizeHandler(false))
	mux.HandleFunc("/v2/localize/batch", f.localizeHandler(true))
	mux.HandleFunc("/v1/stats", f.handleStats)
	mux.HandleFunc("/v1/cluster", f.handleCluster)
	mux.HandleFunc("/v1/rollout", f.handleRollout)
	mux.HandleFunc("/v1/healthz", f.handleHealthz)
	mux.HandleFunc("/v1/readyz", f.handleReadyz)
	return mux
}

// writeRouteError maps a router failure onto the wire.
func writeRouteError(w http.ResponseWriter, err error) {
	if re, ok := err.(*RouteError); ok {
		serve.WriteError(w, re.Status, "%s", re.Message)
		return
	}
	serve.WriteError(w, http.StatusInternalServerError, "%v", err)
}

// localizeHandler serves both localize routes: decode, run the request
// through the router, answer one object (single) or an NDJSON stream
// (batch). The body is the node's — "target" for the single route,
// "targets" for the batch route, "options" for both.
func (f *Front) localizeHandler(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			serve.WriteError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		req, ok := serve.DecodeLocalize(w, r)
		if !ok {
			return
		}
		if !batch {
			tr, err := f.router.Localize(r.Context(), req.Target, req.Options)
			if err != nil {
				writeRouteError(w, err)
				return
			}
			serve.WriteResultV2(w, &tr)
			return
		}
		// The router gathers before emitting (epoch coherence needs the
		// whole response in hand), so the stream starts only once the batch
		// is complete — same wire shape as a node, different latency
		// profile.
		results, err := f.router.Batch(r.Context(), req.Targets, req.Options)
		if err != nil {
			writeRouteError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		var b []byte
		for i := range results {
			if b, err = serve.AppendTargetResultV2(b, &results[i]); err != nil {
				break
			}
		}
		_, _ = w.Write(b)
	}
}

func (f *Front) handleStats(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, f.router.Stats(r.Context()))
}

// clusterView is the /v1/cluster wire shape: ring membership with live
// routing state.
type clusterView struct {
	Epoch uint64         `json:"epoch"`
	Nodes []clusterNode  `json:"nodes"`
	Loads map[string]int `json:"loads"`
}

type clusterNode struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Ready bool   `json:"ready"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// handleCluster answers /v1/cluster with a fresh readiness probe of every
// member, each bounded by the router's probe timeout; a member that does
// not answer in time is listed as not ready.
func (f *Front) handleCluster(w http.ResponseWriter, r *http.Request) {
	view := clusterView{Epoch: f.router.Epoch(), Loads: f.router.Ring().Loads()}
	for _, name := range f.router.Ring().Nodes() {
		m := f.router.members[name]
		rd := m.probe(r.Context())
		view.Nodes = append(view.Nodes, clusterNode{Name: name, URL: m.node.BaseURL, Ready: rd.Ready, Epoch: rd.Epoch})
	}
	serve.WriteJSON(w, http.StatusOK, view)
}

func (f *Front) handleRollout(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		serve.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req struct {
		SkipRefresh bool `json:"skip_refresh"`
	}
	if r.ContentLength != 0 && !serve.DecodeJSON(w, r, &req) {
		return
	}
	report, err := f.coord.Rollout(r.Context(), RolloutOptions{SkipRefresh: req.SkipRefresh})
	if err != nil {
		serve.WriteError(w, http.StatusUnprocessableEntity, "rollout failed: %v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, report)
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"nodes":  f.router.Ring().Len(),
		"epoch":  f.router.Epoch(),
	})
}

// handleReadyz reports the front door ready when at least one fleet
// member is ready to take traffic. Each member's probe is bounded by the
// router's probe timeout on its own, so a hung member costs one timeout
// and the members after it are still asked.
func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, name := range f.router.Ring().Nodes() {
		if f.router.members[name].isReady(r.Context()) {
			serve.WriteJSON(w, http.StatusOK, serve.Readiness{Ready: true, Epoch: f.router.Epoch()})
			return
		}
	}
	serve.WriteJSON(w, http.StatusServiceUnavailable, serve.Readiness{Ready: false, Reason: "no ready nodes"})
}
