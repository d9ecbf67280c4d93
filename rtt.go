package sharqfec

import (
	"fmt"
	"sort"

	"sharqfec/internal/eventq"
	"sharqfec/internal/netsim"
	"sharqfec/internal/packet"
	"sharqfec/internal/session"
	"sharqfec/internal/topology"
)

// RTTConfig parameterizes a §6.1 indirect-RTT-estimation experiment
// (Figures 11–13): after the session stabilizes, Sender multicasts
// Probes fake NACKs at ProbeInterval to the largest scope; every other
// receiver estimates the RTT to the sender and the ratio to ground truth
// is recorded.
type RTTConfig struct {
	// Topology defaults to Figure10Topology().
	Topology *Topology
	// Sender defaults to receiver 3 (the paper probes 3, 25 and 36).
	Sender int
	Seed   uint64
	// StabilizeUntil is when probing starts (default 12 s — elections
	// plus a few measurement rounds).
	StabilizeUntil float64
	// Probes and ProbeInterval default to 10 probes, 2 s apart.
	Probes        int
	ProbeInterval float64
}

func (c *RTTConfig) applyDefaults() {
	if c.Topology == nil {
		c.Topology = Figure10Topology()
	}
	if c.Sender == 0 {
		c.Sender = 3
	}
	if c.StabilizeUntil == 0 {
		c.StabilizeUntil = 12
	}
	if c.Probes == 0 {
		c.Probes = 10
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2
	}
}

// RTTResult holds the estimated/actual RTT ratios.
type RTTResult struct {
	Sender int
	// Ratios[p] lists, for probe p, the est/actual ratio at every
	// receiver that could form an estimate.
	Ratios [][]float64
	// Able[p] is how many receivers could estimate at probe p.
	Able []int
	// Receivers is the number of potential estimators.
	Receivers int
}

// FinalFractionWithin returns the fraction of last-probe estimates whose
// ratio is within tol of 1 (the paper reports >50 % "within a few
// percent").
func (r *RTTResult) FinalFractionWithin(tol float64) float64 {
	if len(r.Ratios) == 0 {
		return 0
	}
	last := r.Ratios[len(r.Ratios)-1]
	if len(last) == 0 {
		return 0
	}
	n := 0
	for _, v := range last {
		if v > 1-tol && v < 1+tol {
			n++
		}
	}
	return float64(n) / float64(len(last))
}

// MedianRatio returns the median est/actual ratio of probe p.
func (r *RTTResult) MedianRatio(p int) float64 {
	if p < 0 || p >= len(r.Ratios) || len(r.Ratios[p]) == 0 {
		return 0
	}
	v := append([]float64(nil), r.Ratios[p]...)
	sort.Float64s(v)
	return v[len(v)/2]
}

// rttProbeAgent wraps a session manager and measures estimate ratios for
// probe NACKs from the configured sender.
type rttProbeAgent struct {
	m      *session.Manager
	node   topology.NodeID
	sender topology.NodeID
	net    *netsim.Network
	sink   func(node topology.NodeID, ratio float64, ok bool)
}

func (a *rttProbeAgent) Receive(now eventq.Time, d netsim.Delivery) {
	if n, ok := d.Pkt.(*packet.NACK); ok && n.Origin == a.sender && a.node != a.sender {
		est, formed := a.m.EstimateRTT(n.Origin, n.Ancestors)
		truth := 2 * a.net.OneWayDelay(a.sender, a.node).Seconds()
		if formed && truth > 0 {
			a.sink(a.node, est/truth, true)
		} else {
			a.sink(a.node, 0, false)
		}
		return
	}
	a.m.Receive(now, d.Pkt)
}

// RunRTT runs the indirect RTT estimation experiment.
func RunRTT(cfg RTTConfig) (*RTTResult, error) {
	cfg.applyDefaults()
	spec := cfg.Topology.spec
	sender := topology.NodeID(cfg.Sender)
	found := false
	for _, m := range spec.Members() {
		if m == sender {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("sharqfec: probe sender %d is not a session member", cfg.Sender)
	}

	s, err := newSim(spec, cfg.Seed, 0, nil)
	if err != nil {
		return nil, err
	}

	res := &RTTResult{Sender: cfg.Sender, Receivers: len(spec.Members()) - 1}
	probe := -1
	sink := func(_ topology.NodeID, ratio float64, ok bool) {
		if probe < 0 {
			return
		}
		if ok {
			res.Ratios[probe] = append(res.Ratios[probe], ratio)
			res.Able[probe]++
		}
	}

	mgrs := sessionOnly(s, func(m topology.NodeID, mgr *session.Manager) netsim.Agent {
		return &rttProbeAgent{m: mgr, node: m, sender: sender, net: s.netFor(m), sink: sink}
	}, nil)
	for p := 0; p < cfg.Probes; p++ {
		p := p
		at := cfg.StabilizeUntil + float64(p)*cfg.ProbeInterval
		res.Ratios = append(res.Ratios, nil)
		res.Able = append(res.Able, 0)
		s.at(secondsToTime(at), func(now eventq.Time) {
			probe = p
			root := s.h.Root()
			s.netFor(sender).Multicast(sender, root, &packet.NACK{
				Origin:    sender,
				Group:     uint32(1000 + p),
				Zone:      int16(root),
				Ancestors: mgrs[sender].AncestorList(),
			})
		})
	}
	s.run(secondsToTime(cfg.StabilizeUntil + float64(cfg.Probes)*cfg.ProbeInterval + 2))
	return res, nil
}
