package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"octant/internal/batch"
	"octant/internal/lifecycle"
	"octant/internal/serve"
)

// NodeClient speaks the internal/serve wire protocol to one fleet
// member. It is the only place the cluster tier touches HTTP details, so
// the router and coordinator read as protocol logic.
type NodeClient struct {
	// Name is the member's ring identity (stable across restarts; the
	// ring hashes it, so renaming a node reshards its keys).
	Name string
	// BaseURL is the node's root, e.g. "http://10.0.0.7:8080".
	BaseURL string
	// HTTP is the client used for every call (nil = http.DefaultClient).
	HTTP *http.Client
}

func (n *NodeClient) client() *http.Client {
	if n.HTTP != nil {
		return n.HTTP
	}
	return http.DefaultClient
}

// apiError is a node's JSON error envelope surfaced as a Go error with
// its HTTP status attached.
type apiError struct {
	Status  int
	Message string
}

func (e *apiError) Error() string { return e.Message }

// decodeError turns a non-2xx response into an *apiError.
func decodeError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	return &apiError{Status: resp.StatusCode, Message: msg}
}

// do issues one request and returns its 200 response, whose body the
// caller closes; any other status comes back as an *apiError.
func (n *NodeClient) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, n.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.client().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// roundTrip sends body (nil = none) as JSON and decodes the answer into
// out (nil = discard it).
func (n *NodeClient) roundTrip(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	resp, err := n.do(ctx, method, path, rd)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	return decodeCapped(resp.Body, out)
}

// maxResponseBody caps every JSON answer a node sends back except the
// snapshot (serve.MaxSnapshotBody) and the batch stream (a 1 MiB line
// cap): a misbehaving node must not make the caller allocate without
// bound.
const maxResponseBody = 1 << 20

// decodeCapped decodes one JSON document of at most maxResponseBody bytes
// into out.
func decodeCapped(body io.Reader, out any) error {
	data, err := readCapped(body, maxResponseBody)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// readCapped reads body whole; more than limit bytes is an error, never a
// truncated read.
func readCapped(body io.Reader, limit int) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(body, int64(limit)+1))
	if err != nil {
		return nil, err
	}
	if len(data) > limit {
		return nil, fmt.Errorf("response exceeds %d bytes", limit)
	}
	return data, nil
}

// LocalizeV2 runs one localization on the node.
func (n *NodeClient) LocalizeV2(ctx context.Context, target string, opts *serve.WireOptions) (serve.TargetResultV2, error) {
	var tr serve.TargetResultV2
	err := n.roundTrip(ctx, http.MethodPost, "/v2/localize", map[string]any{"target": target, "options": opts}, &tr)
	return tr, err
}

// BatchV2 streams a batch through the node, invoking fn for every NDJSON
// line in arrival order. fn returning an error aborts the stream.
func (n *NodeClient) BatchV2(ctx context.Context, targets []string, opts *serve.WireOptions, fn func(serve.TargetResultV2) error) error {
	b, err := json.Marshal(map[string]any{"targets": targets, "options": opts})
	if err != nil {
		return err
	}
	resp, err := n.do(ctx, http.MethodPost, "/v2/localize/batch", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20) // starts at 4 KiB, grows to a 1 MiB line cap
	for sc.Scan() {
		var tr serve.TargetResultV2
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			return fmt.Errorf("%s: bad batch line: %w", n.Name, err)
		}
		if err := fn(tr); err != nil {
			return err
		}
	}
	return sc.Err()
}

// localize runs targets on the node and hands fn one line per target —
// the router's only dispatch call. Input size picks the endpoint: one
// target rides /v2/localize, the hop a single request has always taken,
// and the 422 that endpoint answers for a failed target becomes the error
// line /v2/localize/batch would have streamed for it; more targets ride
// the batch endpoint.
func (n *NodeClient) localize(ctx context.Context, targets []string, opts *serve.WireOptions, fn func(serve.TargetResultV2) error) error {
	if len(targets) != 1 {
		return n.BatchV2(ctx, targets, opts, fn)
	}
	tr, err := n.LocalizeV2(ctx, targets[0], opts)
	var ae *apiError
	if errors.As(err, &ae) && ae.Status == http.StatusUnprocessableEntity {
		tr, err = serve.TargetResultV2{Target: targets[0], Error: ae.Message}, nil
	}
	if err != nil {
		return err
	}
	return fn(tr)
}

// CacheLookup probes the node's result cache for key without triggering
// any measurement. ok is false on a clean miss. The router no longer
// calls it; it stays because the benchmark harness does.
func (n *NodeClient) CacheLookup(ctx context.Context, key Key) (serve.TargetResultV2, bool, error) {
	q := url.Values{}
	q.Set("target", key.Target)
	if key.Fingerprint != "" {
		q.Set("fp", key.Fingerprint)
	}
	q.Set("epoch", strconv.FormatUint(key.Epoch, 10))
	var tr serve.TargetResultV2
	err := n.roundTrip(ctx, http.MethodGet, "/v1/cache/lookup?"+q.Encode(), nil, &tr)
	if err != nil {
		var ae *apiError
		if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
			return serve.TargetResultV2{}, false, nil
		}
		return serve.TargetResultV2{}, false, err
	}
	return tr, true, nil
}

// Ready fetches the node's readiness. A 503 is a valid (not-ready)
// answer, not an error; err is reserved for transport trouble.
func (n *NodeClient) Ready(ctx context.Context) (serve.Readiness, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.BaseURL+"/v1/readyz", nil)
	if err != nil {
		return serve.Readiness{}, err
	}
	resp, err := n.client().Do(req)
	if err != nil {
		return serve.Readiness{}, err
	}
	defer resp.Body.Close()
	var rd serve.Readiness
	if err := decodeCapped(resp.Body, &rd); err != nil {
		return serve.Readiness{}, err
	}
	return rd, nil
}

// Stats fetches the node's engine counters.
func (n *NodeClient) Stats(ctx context.Context) (batch.Stats, error) {
	var st batch.Stats
	err := n.roundTrip(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Snapshot pulls the node's current survey epoch in snapshot form. A body
// over serve.MaxSnapshotBody — more than any node would accept back on
// install — is an error, never a truncated snapshot.
func (n *NodeClient) Snapshot(ctx context.Context) ([]byte, uint64, error) {
	resp, err := n.do(ctx, http.MethodGet, "/v1/survey/snapshot", nil)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	epoch, err := strconv.ParseUint(resp.Header.Get("Octant-Epoch"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: bad Octant-Epoch header: %w", n.Name, err)
	}
	data, err := readCapped(resp.Body, serve.MaxSnapshotBody)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: snapshot: %w", n.Name, err)
	}
	return data, epoch, nil
}

// Install pushes a snapshot to the node, which publishes it as its
// current epoch, and returns that epoch.
func (n *NodeClient) Install(ctx context.Context, snapshot []byte) (uint64, error) {
	resp, err := n.do(ctx, http.MethodPost, "/v1/survey/install", bytes.NewReader(snapshot))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := decodeCapped(resp.Body, &out); err != nil {
		return 0, err
	}
	return out.Epoch, nil
}

// Refresh triggers a full reprobe + recalibration on the node.
func (n *NodeClient) Refresh(ctx context.Context) (lifecycle.RefreshReport, error) {
	var rep lifecycle.RefreshReport
	err := n.roundTrip(ctx, http.MethodPost, "/v1/survey/refresh", map[string]any{}, &rep)
	return rep, err
}
