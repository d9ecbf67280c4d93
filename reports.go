package sharqfec

import (
	"sharqfec/internal/core"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// ReceiverReportResult measures the §7 extension: RTCP-style receiver
// reports aggregated through the ZCR hierarchy. The source should learn
// the session's worst reception quality from O(zones) summaries instead
// of hearing every receiver.
type ReceiverReportResult struct {
	// SourceWorstLoss is the worst loss fraction visible to the source
	// through the aggregated root-scope summaries.
	SourceWorstLoss float64
	// SourceMembers is how many receivers those summaries cover.
	SourceMembers int
	// TrueWorstLoss is the actual worst per-receiver raw loss fraction
	// observed during the run (before repair).
	TrueWorstLoss float64
	// DirectReporters counts distinct origins whose summaries the
	// source heard at root scope — the announcement load on the source.
	DirectReporters int
	Receivers       int
}

// RunReceiverReports streams the paper scenario over Figure-10 with
// every receiver publishing its raw loss fraction, and compares the
// source's aggregated view against ground truth.
func RunReceiverReports(seed uint64) (*ReceiverReportResult, error) {
	s, err := newSim(topology.Figure10(topology.Figure10Params{}), seed, 0, nil)
	if err != nil {
		return nil, err
	}
	spec, h := s.spec, s.h

	pcfg := core.DefaultConfig()
	pcfg.NumPackets = 512
	agents, err := coreAgents(s, pcfg, nil)
	if err != nil {
		return nil, err
	}
	stream(s, agents, 1, 6)
	s.run(30)

	worst, members := agents[spec.Source].Session().AggregatedReport(h.Root())
	res := &ReceiverReportResult{
		SourceWorstLoss: worst,
		SourceMembers:   int(members),
		Receivers:       len(spec.Receivers),
	}
	// Ground truth goes through the telemetry registry — one gauge per
	// receiver — so the "actual worst" is the same query a live metrics
	// endpoint would answer.
	reg := telemetry.NewRegistry()
	for _, m := range spec.Receivers {
		reg.Gauge(telemetry.Key{
			Name: "raw_loss_fraction", Node: m, Zone: scoping.NoZone,
		}).Set(agents[m].RawLossFraction())
	}
	if _, worst, ok := reg.MaxGauge("raw_loss_fraction"); ok {
		res.TrueWorstLoss = worst
	}
	res.DirectReporters = agents[spec.Source].Session().ReportersHeard(h.Root())
	return res, nil
}
