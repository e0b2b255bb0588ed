package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"octant/internal/batch"
	"octant/internal/core"
	"octant/internal/geo"
	"octant/internal/serve"
)

// wireResult is the part of a v2 response the harness checks.
type wireResult struct {
	Target   string   `json:"target"`
	Lat      *float64 `json:"lat"`
	Lon      *float64 `json:"lon"`
	AreaKm2  float64  `json:"area_km2"`
	Cached   bool     `json:"cached"`
	Degraded bool     `json:"degraded"`
	Error    string   `json:"error"`
	Epoch    uint64   `json:"epoch"`
}

// reference is one target's expected answer and its true location.
type reference struct {
	lat, lon, area float64
	truth          geo.Point
}

// oracle holds reference answers computed by a localizer that shares
// nothing with the serving stacks but the survey, so a wrong answer
// anywhere above it (engine, cache, wire, cluster) is caught.
type oracle struct {
	refs map[string]reference
}

func newOracle(sub *substrate) (*oracle, error) {
	loc := core.NewLocalizer(sub.sim, sub.survey, core.Config{Probes: probesPerPing})
	o := &oracle{refs: make(map[string]reference, len(sub.targets))}
	for _, target := range sub.targets {
		res, err := loc.LocalizeContext(context.Background(), target)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", target, err)
		}
		// The reference takes the same JSON round trip a response does,
		// so the comparison for a default request is bit for bit.
		wire, err := json.Marshal(serve.ToTargetResultV2(batch.Item{Target: target, Result: res}))
		if err != nil {
			return nil, err
		}
		var r wireResult
		if err := json.Unmarshal(wire, &r); err != nil {
			return nil, err
		}
		if r.Lat == nil || r.Lon == nil {
			return nil, fmt.Errorf("oracle: %s: empty region", target)
		}
		host, ok := sub.world.HostByName(target)
		if !ok {
			return nil, fmt.Errorf("oracle: %s: not in world", target)
		}
		o.refs[target] = reference{lat: *r.Lat, lon: *r.Lon, area: r.AreaKm2, truth: host.Loc}
	}
	return o, nil
}

// check verifies one decoded result against the reference for its
// target, bit for bit whatever the key (keys differ only in an option
// that contributes no evidence), and returns the answer's distance from
// the truth.
func (o *oracle) check(r *wireResult, wantCached bool) (errKm float64, err error) {
	ref, ok := o.refs[r.Target]
	switch {
	case !ok:
		return 0, fmt.Errorf("answer for unknown target %q", r.Target)
	case r.Error != "":
		return 0, fmt.Errorf("%s: inline error: %s", r.Target, r.Error)
	case r.Degraded:
		return 0, fmt.Errorf("%s: degraded", r.Target)
	case r.Lat == nil || r.Lon == nil:
		return 0, fmt.Errorf("%s: no point", r.Target)
	case wantCached && !r.Cached:
		return 0, fmt.Errorf("%s: expected cached:true", r.Target)
	}
	if *r.Lat != ref.lat || *r.Lon != ref.lon || r.AreaKm2 != ref.area {
		return 0, fmt.Errorf("%s: answer differs from oracle: got (%v,%v) %v km², want (%v,%v) %v km²",
			r.Target, *r.Lat, *r.Lon, r.AreaKm2, ref.lat, ref.lon, ref.area)
	}
	return geo.Pt(*r.Lat, *r.Lon).DistanceKm(ref.truth), nil
}

// checkBody verifies a scalar response body.
func (o *oracle) checkBody(body []byte, target string, wantCached bool) (float64, error) {
	var r wireResult
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("%s: bad response: %w", target, err)
	}
	if r.Target != target {
		return 0, fmt.Errorf("asked for %s, answer names %q", target, r.Target)
	}
	return o.check(&r, wantCached)
}

// checkStream verifies an NDJSON batch body: one correct line per
// submitted target, in any order. visit sees every correct answer.
func (o *oracle) checkStream(body []byte, targets []string, visit func(target string, errKm float64)) error {
	seen := make(map[string]bool, len(targets))
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte{'\n'}) {
		var r wireResult
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("bad batch line: %w", err)
		}
		if seen[r.Target] {
			return fmt.Errorf("%s answered twice", r.Target)
		}
		seen[r.Target] = true
		errKm, err := o.check(&r, false)
		if err != nil {
			return err
		}
		visit(r.Target, errKm)
	}
	for _, t := range targets {
		if !seen[t] {
			return fmt.Errorf("%s missing from batch response", t)
		}
	}
	if len(seen) != len(targets) {
		return fmt.Errorf("batch answered %d targets, asked %d", len(seen), len(targets))
	}
	return nil
}
