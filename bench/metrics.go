package main

import (
	"fmt"
	"regexp"
)

// metricDef declares one reported quantity. Bound is the share of the
// baseline median by which the metric may worsen before -compare calls
// it a regression (0 for per-layer metrics, which carry no bound).
// Only lists the workloads the metric is defined on; nil means all.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Only   []string
}

func (m metricDef) appliesTo(workload string) bool {
	if m.Only == nil {
		return true
	}
	for _, w := range m.Only {
		if w == workload {
			return true
		}
	}
	return false
}

// Workload names are normative: later issues cite them.
const (
	wFig17Data    = "fig17_data"
	wFig17Sharded = "fig17_sharded"
	wNational     = "national_session"
	wBurst        = "burst_observed"
)

var (
	dataWorkloads = []string{wFig17Data, wFig17Sharded, wBurst}
	onlyBurst     = []string{wBurst}
	onlyNational  = []string{wNational}
)

// endToEnd is what a user of the simulator sees: host-time cost of a
// scenario and the simulated protocol costs the scenario reports.
// BENCHMARK.json has one flat end_to_end list for all workloads, so it
// carries the rows defined on every workload; the simulated rows that
// exist on some workloads only sit in its per_layer list, while the full
// run and -compare hold them to the bounds here. The host-time bounds
// are wider than the issue asked for because this host cannot hold
// narrower ones (README, "Measured").
var endToEnd = []metricDef{
	{Name: "pass_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_pass", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_deliveries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_pass", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "alloc_mb_per_pass", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "deliveries_per_rcvr", Unit: "pkts", Better: "lower", Bound: 0.05},
	{Name: "completion_rate", Unit: "ratio", Better: "higher", Bound: 0.0005, Only: dataWorkloads},
	{Name: "pkts_per_rcvr", Unit: "pkts", Better: "lower", Bound: 0.05, Only: dataWorkloads},
	{Name: "nacks_per_rcvr", Unit: "pkts", Better: "lower", Bound: 0.10, Only: dataWorkloads},
	{Name: "recovery_p95_ms", Unit: "sim_ms", Better: "lower", Bound: 0.10, Only: onlyBurst},
	{Name: "state_per_node", Unit: "count", Better: "lower", Bound: 0.02, Only: onlyNational},
	{Name: "ctrl_msgs_per_rcvr_s", Unit: "1/s", Better: "lower", Bound: 0.02, Only: onlyNational},
}

// perLayer is the outside-in layer ledger: probes of each package's
// public API, counts from a census-armed pass, and CPU shares from a
// profiled pass. Layer = package name; bench.* rows describe the
// harness itself.
var perLayer = []metricDef{
	{Name: "eventq.schedule_fire_ns", Unit: "ns", Better: "lower"},
	{Name: "eventq.schedule_fire_deep_ns", Unit: "ns", Better: "lower"},
	{Name: "eventq.cancel_ns", Unit: "ns", Better: "lower"},
	{Name: "eventq.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "eventq.shard_epoch_us", Unit: "us", Better: "lower"},
	{Name: "eventq.cross_post_ns", Unit: "ns", Better: "lower"},
	{Name: "eventq.events", Unit: "count", Better: "lower"},
	{Name: "eventq.cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "netsim.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.scoped_hop_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.cluster_hop_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.allocs_per_mcast", Unit: "count", Better: "lower"},
	{Name: "netsim.hops", Unit: "count", Better: "lower"},
	{Name: "netsim.drops", Unit: "count", Better: "lower"},
	{Name: "netsim.cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "fec.encode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "fec.encode_h1_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "fec.decode_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "fec.decode_cold_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "fec.encode_allocs", Unit: "count", Better: "lower"},
	{Name: "fec.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "fec.shares", Unit: "count", Better: "lower"},
	{Name: "fec.cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "core.data_rx_ns", Unit: "ns", Better: "lower"},
	{Name: "core.loss_group_ns", Unit: "ns", Better: "lower"},
	{Name: "core.agent_kb", Unit: "KB", Better: "lower"},
	{Name: "core.nacks", Unit: "count", Better: "lower"},
	{Name: "core.repairs", Unit: "count", Better: "lower"},
	{Name: "core.injected", Unit: "count", Better: "lower"},
	{Name: "core.cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "session.msg_rx_ns", Unit: "ns", Better: "lower"},
	{Name: "session.state_entries", Unit: "count", Better: "lower"},
	{Name: "session.kb_per_rcvr", Unit: "KB", Better: "lower"},
	{Name: "session.msgs", Unit: "count", Better: "lower"},
	{Name: "session.cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "telemetry.bus_emit_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.registry_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.spans_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.health_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.census_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.jsonl_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.events", Unit: "count", Better: "lower"},
	{Name: "telemetry.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "ratecontrol.decision_ns", Unit: "ns", Better: "lower"},
	{Name: "ratecontrol.decisions", Unit: "count", Better: "lower"},
	{Name: "ratecontrol.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "stats.tap_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "packet.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "topology.national_build_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "scoping.build_ms", Unit: "ms", Better: "lower"},
	{Name: "topology.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.alloc.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.map.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.sched.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "other.cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "bench.core_util", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.pass_hi_ms", Unit: "ms", Better: "lower"},
}

// declaredEndToEnd / declaredPerLayer are the two lists as
// BENCHMARK.json carries them: the end-to-end metrics defined on every
// workload, and the ledger plus the workload-specific end-to-end ones.
func declaredEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Only == nil {
			out = append(out, m)
		}
	}
	return out
}

func declaredPerLayer() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, m := range endToEnd {
		if m.Only != nil {
			out = append(out, m)
		}
	}
	return out
}

// Limits of the benchmark declaration (see the builder's contract).
const (
	maxWorkloads = 8
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxNameLen   = 64
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// validateNames checks the workload and metric names against the
// declaration limits: the name alphabet and length, uniqueness, and
// the three list caps.
func validateNames(workloads []string, e2e, layer []metricDef) error {
	if n := len(workloads); n < 2 || n > maxWorkloads {
		return fmt.Errorf("%d workloads; want 2..%d", n, maxWorkloads)
	}
	if n := len(e2e); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics; want 1..%d", n, maxEndToEnd)
	}
	if n := len(layer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics; want 1..%d", n, maxPerLayer)
	}
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if len(name) > maxNameLen || !nameRE.MatchString(name) {
			return fmt.Errorf("%s name %q: want [A-Za-z0-9_.-]+, at most %d characters", kind, name, maxNameLen)
		}
		if seen[name] {
			return fmt.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range workloads {
		if err := check("workload", w); err != nil {
			return err
		}
	}
	for _, m := range append(append([]metricDef(nil), e2e...), layer...) {
		if err := check("metric", m.Name); err != nil {
			return err
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %q: direction %q", m.Name, m.Better)
		}
	}
	return nil
}
