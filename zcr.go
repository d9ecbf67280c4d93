package sharqfec

import (
	"sharqfec/internal/analysis"
	"sharqfec/internal/eventq"
	"sharqfec/internal/scoping"
	"sharqfec/internal/session"
	"sharqfec/internal/topology"
)

// ZCRResult reports a §6.1 ZCR-election experiment: whether every zone
// elected the receiver closest to its parent ZCR, and how the membership
// converged.
type ZCRResult struct {
	Topology string
	// PerZone maps zone ID → (elected, expected) node IDs as seen by
	// the zone's members (unanimity required for Elected to be set).
	PerZone map[int]ZoneElection
	// Correct is true when every zone unanimously elected the expected
	// node.
	Correct bool
	// Takeovers counts ZCR changes observed across all members — the
	// paper reports elections settling within one or two challenges.
	Takeovers int
}

// ZoneElection is one zone's outcome.
type ZoneElection struct {
	Elected   int // -1 when members disagree or none elected
	Expected  int
	Unanimous bool
}

// runSessionOnly runs cfg's session script with no data: a one-group
// stream whose source turns on after the horizon, so it never sends.
// What runs is the §5 session layer every member starts on joining,
// read back through r.coreAgent(m).Session().
func runSessionOnly(cfg DataConfig, prepare func(r *dataRun)) (*DataResult, *dataRun, error) {
	cfg.applyDefaults()
	cfg.NumPackets = 16
	cfg.SourceOnAt = cfg.Until + 1
	return runData(cfg, prepare)
}

// RunZCRElection runs the session layer alone on a topology (default
// Figure 10, 30 s) and checks that every zone elects its closest
// receiver as ZCR (§5.2's guarantee: "the challenge process always
// results in the closest receiver in the zone being elected").
func RunZCRElection(top *Topology, seed uint64, until float64) (*ZCRResult, error) {
	_, r, err := runSessionOnly(DataConfig{Protocol: SHARQFEC, Topology: top, Seed: seed, Until: until}, nil)
	if err != nil {
		return nil, err
	}
	spec, h := r.spec, r.h
	mgr := func(m topology.NodeID) *session.Manager { return r.coreAgent(m).Session() }

	res := &ZCRResult{Topology: spec.Name, PerZone: map[int]ZoneElection{}, Correct: true}
	tree := spec.Graph.SPFTree(spec.Source)
	for z := scoping.ZoneID(0); int(z) < h.NumZones(); z++ {
		if h.Parent(z) == scoping.NoZone {
			continue
		}
		// Expected: the zone member closest (by latency) to the source
		// along the delivery tree — with nested zones rooted at
		// subtree heads this is also the member closest to the parent
		// ZCR.
		expected := topology.NoNode
		best := eventq.Duration(1e18)
		for _, m := range h.Members(z) {
			if tree.Dist[m] < best {
				best = tree.Dist[m]
				expected = m
			}
		}
		elected := topology.NoNode
		unanimous := true
		for i, m := range h.Members(z) {
			got := mgr(m).ZCR(z)
			if i == 0 {
				elected = got
			} else if got != elected {
				unanimous = false
			}
		}
		el := ZoneElection{Elected: int(elected), Expected: int(expected), Unanimous: unanimous}
		if !unanimous {
			el.Elected = -1
		}
		res.PerZone[int(z)] = el
		if !unanimous || elected != expected {
			res.Correct = false
		}
	}
	for _, m := range r.members {
		res.Takeovers += mgr(m).Elections
	}
	return res, nil
}

// CascadeReport returns the Figure-2 redundancy-cascade expectations for
// the reproduction's Figure-10 topology (extension; validated against
// the simulator's converged injection predictors in the test suite).
func CascadeReport() string { return analysis.CascadeReport(16) }

// Figure1Report returns the §3.1 analytic example (experiment E1).
func Figure1Report() string { return analysis.Figure1Report() }

// Figure8Report returns the national-hierarchy state table (E2) for the
// paper's parameters.
func Figure8Report() string { return analysis.Figure8Report(topology.PaperNational()) }

// Figure8ReportFor returns the table for custom hierarchy parameters.
func Figure8ReportFor(regions, cities, suburbs, subscribers int) string {
	return analysis.Figure8Report(topology.NationalParams{
		Regions: regions, Cities: cities,
		Suburbs: suburbs, SubscribersPerSuburb: subscribers,
	})
}
