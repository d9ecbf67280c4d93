package sharqfec

import (
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
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
	_, r, err := runData(DataConfig{Protocol: SHARQFEC, Seed: seed, NumPackets: 512, Until: 30}, nil)
	if err != nil {
		return nil, err
	}
	spec, h := r.s.spec, r.s.h
	source := r.coreAgent(spec.Source)

	worst, members := source.Session().AggregatedReport(h.Root())
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
		}).Set(r.coreAgent(m).RawLossFraction())
	}
	if _, worst, ok := reg.MaxGauge("raw_loss_fraction"); ok {
		res.TrueWorstLoss = worst
	}
	res.DirectReporters = source.Session().ReportersHeard(h.Root())
	return res, nil
}
