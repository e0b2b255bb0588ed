package main

import (
	"fmt"
	"math"
)

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// carries the same table for the driver; the smoke test keeps the two in
// step.
type metricDef struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the numbers a user of the service sees. Failures are not
// in the table because their healthy value is 0 and a bound is a share:
// every run reports attempted and failed beside the metrics and exits
// non-zero when failed > 0. The latency tail is not in it because no
// estimate of it repeats within a bound on a shared machine; it is the
// diagnostic loadgen.latency_p99_ms (README.md, Noise control).
var endToEnd = []metricDef{
	{name: "latency_p50_ms", unit: "ms", bound: 0.25},
	{name: "throughput_per_s", unit: "localizations/s", higher: true, bound: 0.25},
	{name: "median_error_km", unit: "km", bound: 0.01},
	{name: "setup_s", unit: "s", bound: 0.25},
}

// perLayer are the single-layer numbers of the traced run, named
// <module>.<what>. README.md says which end-to-end metric each should
// move, and on which workload.
var perLayer = []metricDef{
	{name: "net.client_hop_us", unit: "us"},
	{name: "net.client_hop_miss_us", unit: "us"},

	{name: "cluster.front_self_us", unit: "us"},
	{name: "cluster.router_self_us", unit: "us"},
	{name: "cluster.proxy_hop_us", unit: "us"},
	{name: "cluster.l1_hit_us", unit: "us"},
	{name: "cluster.peer_fetch_us", unit: "us"},
	{name: "cluster.ring_owner_ns", unit: "ns"},
	{name: "cluster.l1_hit_ratio", unit: "ratio", higher: true},
	{name: "cluster.peer_fetch_ratio", unit: "ratio", higher: true},
	{name: "cluster.failovers", unit: "count"},

	{name: "serve.decode_us", unit: "us"},
	{name: "serve.encode_us", unit: "us"},
	{name: "serve.miss_self_us", unit: "us"},
	{name: "serve.hit_self_us", unit: "us"},
	{name: "serve.batch_self_ms", unit: "ms"},
	{name: "serve.batch_first_item_ms", unit: "ms"},
	{name: "serve.resp_bytes", unit: "bytes"},

	{name: "batch.hit_us", unit: "us"},
	{name: "batch.miss_self_us", unit: "us"},
	{name: "batch.fused_self_ms", unit: "ms"},
	{name: "batch.fingerprint_ns", unit: "ns"},
	{name: "batch.lru_hit_ratio", unit: "ratio", higher: true},
	{name: "batch.coalesced", unit: "count"},
	{name: "batch.fused_targets_per_group", unit: "count", higher: true},

	{name: "core.localize_ms", unit: "ms"},
	{name: "core.evidence_self_ms", unit: "ms"},
	{name: "core.solve_ms", unit: "ms"},
	{name: "core.solve_unattributed_frac", unit: "ratio"},
	{name: "core.landmask_apply_us", unit: "us"},
	{name: "core.landmask_hit_ratio", unit: "ratio", higher: true},
	{name: "core.constraints_per_req", unit: "count"},
	{name: "core.allocs_per_localize", unit: "count"},
	{name: "core.bytes_per_localize", unit: "bytes"},
	{name: "core.fused_ms_per_target", unit: "ms"},
	{name: "core.fused_allocs_per_target", unit: "count"},

	{name: "geo.fill_us", unit: "us"},
	{name: "geo.census_us", unit: "us"},
	{name: "geo.extract_us", unit: "us"},
	{name: "geo.grid_cells", unit: "count"},
	{name: "geo.levels_per_grid", unit: "count"},

	{name: "measure.fanout_ms", unit: "ms"},
	{name: "measure.fanout_paced_ms", unit: "ms"},
	{name: "measure.traceroute_ms", unit: "ms"},
	{name: "measure.pings_per_req", unit: "count"},
	{name: "measure.traceroutes_per_req", unit: "count"},
	{name: "measure.deduped", unit: "count", higher: true},
	{name: "measure.rtt_cache_hit_ratio", unit: "ratio", higher: true},

	{name: "probe.trains_per_req", unit: "count"},
	{name: "probe.lane_wait_ms_per_req", unit: "ms"},
	{name: "probe.lane_busy_frac", unit: "ratio"},
	{name: "probe.failed", unit: "count"},
	{name: "probe.ping_ns", unit: "ns"},

	{name: "netsim.ping_calls_per_req", unit: "count"},
	{name: "netsim.traceroute_calls_per_req", unit: "count"},

	{name: "setup.survey_ms", unit: "ms"},
	{name: "setup.snapshot_roundtrip_ms", unit: "ms"},
	{name: "setup.first_localize_ms", unit: "ms"},

	{name: "proc.cpu_ms_per_req", unit: "ms"},
	{name: "proc.allocs_per_req", unit: "count"},
	{name: "proc.gc_pause_ms_per_s", unit: "ms/s"},
	{name: "proc.heap_inuse_mb", unit: "MB"},

	{name: "loadgen.latency_p99_ms", unit: "ms"},
	{name: "loadgen.late_p99_ms", unit: "ms"},
	{name: "loadgen.conn_wait_p99_ms", unit: "ms"},
	{name: "loadgen.timer_lag_p99_ms", unit: "ms"},
	{name: "loadgen.sent", unit: "count", higher: true},
	{name: "loadgen.failed", unit: "count"},
	{name: "trace.overhead_frac", unit: "ratio"},
	{name: "ledger.coverage_frac", unit: "ratio", higher: true},
}

// metricValue is one printed number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a declared table, so a name that is
// not declared cannot be printed and a declared one cannot be missed.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic("metric not declared: " + name)
}

// export returns every declared metric with its unit. A metric that
// was never set, or is not a finite number, is an error: the result line
// must carry them all, and JSON has no NaN.
func (m *metricSet) export() (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no value (set: %v, value: %v)", d.name, ok, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
