package sharqfec

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
	spec, h := r.spec, r.h
	source := r.coreAgent(spec.Source)

	worst, members := source.Session().AggregatedReport(h.Root())
	res := &ReceiverReportResult{
		SourceWorstLoss: worst,
		SourceMembers:   int(members),
		Receivers:       len(spec.Receivers),
	}
	for _, m := range spec.Receivers {
		res.TrueWorstLoss = max(res.TrueWorstLoss, r.coreAgent(m).RawLossFraction())
	}
	res.DirectReporters = source.Session().ReportersHeard(h.Root())
	return res, nil
}
