package sharqfec

import (
	"sharqfec/internal/analysis"
	"sharqfec/internal/eventq"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
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

// RunZCRElection runs the session layer alone on a topology and checks
// that every zone elects its closest receiver as ZCR (§5.2's guarantee:
// "the challenge process always results in the closest receiver in the
// zone being elected").
func RunZCRElection(top *Topology, seed uint64, until float64) (*ZCRResult, error) {
	if top == nil {
		top = Figure10Topology()
	}
	if until == 0 {
		until = 30
	}
	s, err := newSim(top.spec, seed, 0, nil)
	if err != nil {
		return nil, err
	}
	spec, h := s.spec, s.h
	mgrs := sessionOnly(s, nil, nil)
	s.run(secondsToTime(until))

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
			got := mgrs[m].ZCR(z)
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
	for _, m := range s.members {
		res.Takeovers += mgrs[m].Elections
	}
	return res, nil
}

type sessionOnlyAgent struct{ m *session.Manager }

func (a sessionOnlyAgent) Receive(now eventq.Time, d netsim.Delivery) { a.m.Receive(now, d.Pkt) }

// sessionOnly runs the session layer alone: one bare manager per
// member on its node's network view, attached through wrap (nil: the
// manager receives every packet itself), all started together at
// t = 1 s once any designated ZCRs are seeded (nil: elect them). The
// managers come back indexed by node.
func sessionOnly(s *sim, wrap func(topology.NodeID, *session.Manager) netsim.Agent,
	designated map[scoping.ZoneID]topology.NodeID) []*session.Manager {

	mgrs := make([]*session.Manager, s.spec.Graph.NumNodes())
	for _, m := range s.members {
		mgr := session.New(m, s.netFor(m), session.DefaultConfig(), s.src.StreamN("session", int(m)))
		mgrs[m] = mgr
		var ag netsim.Agent = sessionOnlyAgent{mgr}
		if wrap != nil {
			ag = wrap(m, mgr)
		}
		s.netFor(m).Attach(m, ag)
	}
	s.at(1, func(eventq.Time) {
		for _, m := range s.members {
			seedDesignated(mgrs[m], designated)
			mgrs[m].Start(m == s.spec.Source)
		}
	})
	return mgrs
}

// SessionScalingResult compares scoped SHARQFEC session traffic with the
// flat all-pairs equivalent on the same topology (experiment E13; the
// measured counterpart of Figure 8).
type SessionScalingResult struct {
	Topology         string
	Members          int
	ScopedDeliveries int
	FlatDeliveries   int
	Reduction        float64 // flat ÷ scoped
	ScopedMaxState   int     // worst-case peers tracked by one member
	FlatStatePerNode int
}

// RunSessionScaling measures session-message deliveries over `seconds`
// of steady state, with the topology's zone hierarchy and with a single
// flat zone.
func RunSessionScaling(top *Topology, seed uint64, seconds float64) (*SessionScalingResult, error) {
	if top == nil {
		top = NationalTopology(2, 3, 4, 5)
	}
	if seconds == 0 {
		seconds = 10
	}
	run := func(spec *topology.Spec) (int, int, error) {
		s, err := newSim(spec, seed, 0, nil)
		if err != nil {
			return 0, 0, err
		}
		deliveries := 0
		s.eachNet(func(n *netsim.Network) {
			n.AddTap(func(_ eventq.Time, _ topology.NodeID, d netsim.Delivery) {
				if d.Pkt.Kind() == packet.TypeSession {
					deliveries++
				}
			})
		})
		mgrs := sessionOnly(s, nil, nil)
		s.run(secondsToTime(1 + seconds))
		maxState := 0
		for _, m := range s.members {
			if n := mgrs[m].StateSize(); n > maxState {
				maxState = n
			}
		}
		return deliveries, maxState, nil
	}

	scoped, scopedState, err := run(top.spec)
	if err != nil {
		return nil, err
	}
	flat, _, err := run(globalized(top.spec))
	if err != nil {
		return nil, err
	}
	res := &SessionScalingResult{
		Topology:         top.spec.Name,
		Members:          len(top.spec.Members()),
		ScopedDeliveries: scoped,
		FlatDeliveries:   flat,
		ScopedMaxState:   scopedState,
		FlatStatePerNode: len(top.spec.Members()) - 1,
	}
	if scoped > 0 {
		res.Reduction = float64(flat) / float64(scoped)
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
