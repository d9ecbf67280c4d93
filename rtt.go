package sharqfec

import (
	"fmt"
	"slices"
	"sort"

	"sharqfec/internal/eventq"
	"sharqfec/internal/packet"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// RTTConfig parameterizes a §6.1 indirect-RTT-estimation experiment
// (Figures 11–13): once the session has stabilized (rttStabilizeUntil),
// Sender multicasts rttProbes fake NACKs, rttProbeInterval apart, to the
// largest scope; every other receiver estimates the RTT to the sender
// and the ratio to ground truth is recorded.
type RTTConfig struct {
	// Topology defaults to Figure10Topology().
	Topology *Topology
	// Sender defaults to receiver 3 (the paper probes 3, 25 and 36).
	Sender int
	Seed   uint64
}

const (
	// rttStabilizeUntil is when probing starts: elections plus a few
	// measurement rounds.
	rttStabilizeUntil = 12
	rttProbes         = 10
	rttProbeInterval  = 2
	// rttProbeGroup is probe 0's NACK group, far past the stream's
	// end; probe p names group rttProbeGroup + p.
	rttProbeGroup = 1000
)

func (c *RTTConfig) applyDefaults() {
	if c.Topology == nil {
		c.Topology = Figure10Topology()
	}
	if c.Sender == 0 {
		c.Sender = 3
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

// RunRTT runs the indirect RTT estimation experiment on the session
// layer alone. Each probe is read by a sink on the view's bus, which
// sees its packet_delivered event before the member's agent sees the
// packet; the agent then drops it (its group is past the stream's end),
// so every estimate reads the session state as it stood before the
// probe arrived. The event does not carry the probe's ancestor list, so
// each probe's list is kept, by probe, when it is sent.
func RunRTT(cfg RTTConfig) (*RTTResult, error) {
	cfg.applyDefaults()
	spec := cfg.Topology.spec
	sender := topology.NodeID(cfg.Sender)
	if !slices.Contains(spec.Members(), sender) {
		return nil, fmt.Errorf("sharqfec: probe sender %d is not a session member", cfg.Sender)
	}

	res := &RTTResult{
		Sender: cfg.Sender, Receivers: len(spec.Members()) - 1,
		Ratios: make([][]float64, rttProbes), Able: make([]int, rttProbes),
	}
	ancestors := make([][]packet.AncestorRTT, rttProbes)
	_, _, err := runSessionOnly(DataConfig{
		Protocol: SHARQFEC, Topology: cfg.Topology, Seed: cfg.Seed,
		Until: rttStabilizeUntil + rttProbes*rttProbeInterval + 2,
	}, func(r *dataRun) {
		for _, b := range r.buses {
			b.AttachKinds(func(e telemetry.Event) {
				p := int(e.Group - rttProbeGroup)
				if e.Kind != telemetry.KindPacketDelivered || e.A != int64(packet.TypeNACK) ||
					e.Origin != sender || e.Node == sender || p < 0 || p >= rttProbes {
					return
				}
				est, formed := r.coreAgent(e.Node).Session().EstimateRTT(sender, ancestors[p])
				if truth := 2 * r.netFor(e.Node).OneWayDelay(sender, e.Node).Seconds(); formed && truth > 0 {
					res.Ratios[p] = append(res.Ratios[p], est/truth)
					res.Able[p]++
				}
			}, telemetry.KindPacketDelivered)
		}
		for p := range rttProbes {
			r.at(secondsToTime(rttStabilizeUntil+float64(p)*rttProbeInterval), func(eventq.Time) {
				root := r.h.Root()
				ancestors[p] = r.coreAgent(sender).Session().AncestorList()
				r.netFor(sender).Multicast(sender, root, &packet.NACK{
					Origin:    sender,
					Group:     uint32(rttProbeGroup + p),
					Zone:      int16(root),
					Ancestors: ancestors[p],
				})
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
