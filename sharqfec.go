// Package sharqfec is the public face of this SHARQFEC reproduction
// (Kermode, SIGCOMM 1998): a discrete-event simulation of Scoped Hybrid
// ARQ/FEC reliable multicast, its ablated variants, and the SRM baseline,
// together with runners that regenerate every figure and table in the
// paper's evaluation.
//
// Four experiment families mirror the paper:
//
//   - RunData reproduces the §6.2 data/repair-traffic figures
//     (Figures 14–21) for any protocol variant.
//   - RunRTT reproduces the §6.1 indirect RTT-estimation accuracy
//     figures (Figures 11–13).
//   - RunZCRElection and RunScalingSweep exercise the §5 session
//     machinery (ZCR elections; scoped-vs-flat session traffic and
//     state, the measured Figure 8).
//   - RunChaos runs the protocol under a scripted fault plan; its
//     default, ZCRCrashPlan, is the §3.2/§5.2 ZCR-failure experiment.
//   - Figure1Report and Figure8Report evaluate the paper's two analytic
//     artifacts.
//
// Every simulation runs on RunData's driver; a session experiment is a
// session-only run, the protocol with a source that never starts
// sending.
//
// All simulations are deterministic for a given seed.
package sharqfec

import (
	"fmt"
	"slices"

	"sharqfec/internal/core"
	"sharqfec/internal/eventq"
	"sharqfec/internal/topology"
)

// Topology is an opaque description of a simulated network, including
// its administrative-scoping zone layout.
type Topology struct {
	spec *topology.Spec
}

// Name returns the topology's descriptive name.
func (t *Topology) Name() string { return t.spec.Name }

// NumNodes returns the total node count.
func (t *Topology) NumNodes() int { return t.spec.Graph.NumNodes() }

// NumReceivers returns the session receiver count (excludes the source).
func (t *Topology) NumReceivers() int { return len(t.spec.Receivers) }

// NumZones returns the number of administrative scope zones.
func (t *Topology) NumZones() int { return len(t.spec.Zones) }

// Figure10Topology returns the paper's §6 evaluation network: a source
// feeding a 7-node 45 Mbit/s backbone mesh, each mesh node rooting a
// 3×4 tree of 10 Mbit/s 20 ms links, 112 receivers in a three-level zone
// hierarchy, with per-link losses calibrated to the paper's 13.4 %–28.3 %
// compound spread.
func Figure10Topology() *Topology {
	return &Topology{spec: topology.Figure10(topology.Figure10Params{})}
}

// ChainTopology returns an n-node chain (source at one end, 10 Mbit/s,
// 10 ms links) with the given per-link loss and a two-level zone layout
// (all receivers in one child zone).
func ChainTopology(n int, loss float64) *Topology {
	return &Topology{spec: topology.ScopedChain(n, loss)}
}

// StarTopology returns a hub-and-spoke network with the source at the
// hub and spoke latencies 10·i ms.
func StarTopology(n int, loss float64) *Topology {
	return &Topology{spec: topology.Star(n, 10e6, 0.010, loss)}
}

// TreeTopology returns a balanced tree (fanout per level) with one child
// zone per depth-1 subtree.
func TreeTopology(fanout []int, loss float64) *Topology {
	return &Topology{spec: topology.BalancedTree(fanout, 10e6, 0.020, loss)}
}

// ParseTopology builds the topology a command-line flag names:
// figure10, chain:N, star:N or tree:FxF… (fanout per level), the last
// three with the given per-link loss.
func ParseTopology(s string, loss float64) (*Topology, error) {
	spec, err := topology.Parse(s, loss)
	if err != nil {
		return nil, err
	}
	return &Topology{spec: spec}, nil
}

// NationalTopology returns a (typically scaled-down) instance of the
// paper's Figure-7 national distribution hierarchy for measured
// session-scaling runs.
func NationalTopology(regions, cities, suburbs, subscribers int) *Topology {
	p := topology.NationalParams{
		Regions: regions, Cities: cities,
		Suburbs: suburbs, SubscribersPerSuburb: subscribers,
	}
	return &Topology{spec: topology.National(p, 10e6, 0.010, 0)}
}

// Protocol selects which reliable-multicast protocol a data experiment
// runs, following the paper's annotation scheme (ns = no scoping,
// ni = no injection, so = sender-only repairs).
type Protocol string

// The evaluated protocols of §6.2.
const (
	// SRM is the pure-ARQ baseline with adaptive timers.
	SRM Protocol = "srm"
	// SHARQFEC is the full protocol: scoped, with preemptive injection
	// and receiver-based repair.
	SHARQFEC Protocol = "sharqfec"
	// SHARQFECNoScope is SHARQFEC(ns).
	SHARQFECNoScope Protocol = "sharqfec-ns"
	// SHARQFECNoInject is SHARQFEC(ni).
	SHARQFECNoInject Protocol = "sharqfec-ni"
	// SHARQFECNoScopeNoInject is SHARQFEC(ns,ni).
	SHARQFECNoScopeNoInject Protocol = "sharqfec-ns-ni"
	// ECSRM is SHARQFEC(ns,ni,so) — the ECSRM-like hybrid baseline.
	ECSRM Protocol = "ecsrm"
	// SHARQFECAdaptive is the full protocol with the §7 future-work
	// adaptive suppression timers enabled.
	SHARQFECAdaptive Protocol = "sharqfec-adaptive"
)

// protocolInfo is one row of the protocol vocabulary: the paper-style
// label String prints, the aliases ParseProtocol accepts besides the
// flag name, whether the protocol runs unscoped, and the core feature
// flags (unused for SRM).
type protocolInfo struct {
	p       Protocol
	label   string
	aliases []string
	// flat runs the protocol on the one-zone hierarchy (globalized):
	// the "ns" variants, and SRM, which has no scoping to run under.
	flat bool
	opts core.Options
}

// protocols is the one table Protocols, ParseProtocol, String, RunChaos
// and runData read, in Protocols order: the one place a variant is
// spelled.
var protocols = []protocolInfo{
	{SRM, "SRM", nil, true, core.Options{}},
	{SHARQFEC, "SHARQFEC", []string{"sharqfec()"}, false, core.Options{Injection: true}},
	{SHARQFECNoScope, "SHARQFEC(ns)", []string{"sharqfec(ns)"}, true, core.Options{Injection: true}},
	{SHARQFECNoInject, "SHARQFEC(ni)", []string{"sharqfec(ni)"}, false, core.Options{}},
	{SHARQFECNoScopeNoInject, "SHARQFEC(ns,ni)", []string{"sharqfec(ns,ni)"}, true, core.Options{}},
	{ECSRM, "SHARQFEC(ns,ni,so)/ECSRM", []string{"sharqfec-ns-ni-so", "sharqfec(ns,ni,so)"}, true,
		core.Options{SenderOnly: true}},
	{SHARQFECAdaptive, "SHARQFEC(adaptive)", []string{"sharqfec(adaptive)"}, false,
		core.Options{Injection: true, AdaptiveTimers: true}},
}

// info returns p's row of the protocol table; ok is false for a name
// outside it.
func (p Protocol) info() (protocolInfo, bool) {
	for _, in := range protocols {
		if in.p == p {
			return in, true
		}
	}
	return protocolInfo{}, false
}

// Protocols lists every runnable protocol.
func Protocols() []Protocol {
	out := make([]Protocol, len(protocols))
	for i, in := range protocols {
		out[i] = in.p
	}
	return out
}

// ParseProtocol resolves a protocol name (accepting the paper's
// "sharqfec(ns,ni,so)" style as well as the flag style above).
func ParseProtocol(s string) (Protocol, error) {
	for _, in := range protocols {
		if s == string(in.p) || slices.Contains(in.aliases, s) {
			return in.p, nil
		}
	}
	return "", fmt.Errorf("sharqfec: unknown protocol %q", s)
}

// String implements fmt.Stringer with the paper's annotations.
func (p Protocol) String() string {
	if in, ok := p.info(); ok {
		return in.label
	}
	return string(p)
}

// Series is a fixed-bin time series (bin width BinWidth seconds,
// starting at Start).
type Series struct {
	Start    float64
	BinWidth float64
	Bins     []float64
}

// Sum returns the total over all bins.
func (s Series) Sum() float64 {
	t := 0.0
	for _, v := range s.Bins {
		t += v
	}
	return t
}

// Max returns the largest bin value and the start time of its bin.
func (s Series) Max() (v, at float64) {
	for i, b := range s.Bins {
		if b > v {
			v = b
			at = s.Start + float64(i)*s.BinWidth
		}
	}
	return
}

// Window sums the bins covering [from, to).
func (s Series) Window(from, to float64) float64 {
	t := 0.0
	for i, v := range s.Bins {
		at := s.Start + float64(i)*s.BinWidth
		if at >= from && at < to {
			t += v
		}
	}
	return t
}

// globalized returns a copy of a spec with its zones flattened to a
// single global zone (for unscoped protocols).
func globalized(spec *topology.Spec) *topology.Spec {
	flat := *spec
	flat.Zones = []topology.ZoneSpec{{ID: 0, Parent: -1, Leaves: spec.Members()}}
	return &flat
}

// secondsToTime converts to the simulator's time type.
func secondsToTime(s float64) eventq.Time { return eventq.Time(s) }
