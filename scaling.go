package sharqfec

import (
	"fmt"

	"sharqfec/internal/analysis"
	"sharqfec/internal/eventq"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/telemetry/census"
	"sharqfec/internal/topology"
)

// ScalingSweepConfig shapes the measured Figure-8 sweep: a national
// hierarchy with fixed upper levels whose suburb population sweeps
// through Subscribers, each point measured with the census engine on a
// scoped and a flat (single-zone) session-only run.
type ScalingSweepConfig struct {
	// Regions/Cities/Suburbs fix the upper hierarchy (defaults 2/2/2).
	Regions, Cities, Suburbs int
	// Subscribers lists the per-suburb population sweep (default
	// 2,4,6,8).
	Subscribers []int
	Seed        uint64
	// Seconds of steady state measured per run (default 10).
	Seconds float64
	// Tolerance is the acceptable relative drift between the measured
	// and analytic state-reduction ratios before a row is flagged
	// (default 0.40). The measured ratio sits systematically below the
	// idealized model's — StateSize also counts ZCR link tables, and
	// small zones carry fixed session overheads the model ignores — and
	// converges toward it as populations grow; see EXPERIMENTS.md E20.
	Tolerance float64
	// Shards is how many event queues each census point runs on (see
	// DataConfig.Shards; 0 and 1 are one shard). Measurements are
	// identical at every shard count; more shards are what make the
	// 10⁵-receiver points tractable.
	Shards int
	// DesignateZCRs pre-seeds every zone's ZCR (the zone's lowest-ID
	// member; the source for the root zone) before the session layer
	// starts, modelling the paper's deployments where zone
	// representatives are configured rather than elected. Without it
	// every receiver probes its region zone on the short bootstrap
	// window and each probe floods the root scope — Θ(N²) hop events,
	// which at 10⁵ receivers is ~10¹⁰ and dwarfs the steady state being
	// measured. Designated runs skip only that bootstrap storm; duty
	// challenges, distance measurement and takeovers still run, and
	// bootstrap election cost itself is measured at small N (E20).
	DesignateZCRs bool
	// FlatCutoff bounds the receiver count up to which the flat
	// (unscoped) side is actually simulated. Above it the flat session
	// is O(N²) in state and messages — at 10⁵ receivers that is ~10¹⁰
	// RTT entries — so the flat columns switch to the analytic model
	// and the row is flagged FlatAnalytic. Default 4096.
	FlatCutoff int
}

// scalingMeasure is what one census-armed session-only run yields.
type scalingMeasure struct {
	peakState  int64 // largest per-node session RTT table observed
	ctrlLink   int64 // session-message link crossings
	escape     int64 // crossings of region (level-1) zone boundaries
	deliveries int   // session messages delivered to members
}

// RunScalingSweep measures the Figure-8 scaling claims: for each
// receiver count it runs the session layer census-armed (a session-only
// data run, see runSessionCensus) as SHARQFEC on the scoped hierarchy
// and as SHARQFECNoScope on the flattened topology, then lines the
// measured state tables, reduction ratios and control-traffic locality
// up against the analytic model, flagging drift beyond the tolerance.
// Points run concurrently on the shared sweep worker pool.
func RunScalingSweep(cfg ScalingSweepConfig) (*analysis.ScalingReport, error) {
	if cfg.Regions == 0 {
		cfg.Regions = 2
	}
	if cfg.Cities == 0 {
		cfg.Cities = 2
	}
	if cfg.Suburbs == 0 {
		cfg.Suburbs = 2
	}
	if len(cfg.Subscribers) == 0 {
		cfg.Subscribers = []int{2, 4, 6, 8}
	}
	if cfg.Seconds == 0 {
		cfg.Seconds = 10
	}
	if cfg.Tolerance == 0 {
		cfg.Tolerance = 0.40
	}
	if cfg.FlatCutoff == 0 {
		cfg.FlatCutoff = 4096
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	points := make([]analysis.ScalingPoint, len(cfg.Subscribers))
	err := runIndexed(len(cfg.Subscribers), func(i int) error {
		p := topology.NationalParams{
			Regions: cfg.Regions, Cities: cfg.Cities,
			Suburbs: cfg.Suburbs, SubscribersPerSuburb: cfg.Subscribers[i],
		}
		top := NationalTopology(cfg.Regions, cfg.Cities, cfg.Suburbs, cfg.Subscribers[i])
		// The scoped and the flat run share the native zone geometry
		// (see runSessionCensus) and differ only in the zones they run.
		measure := func(proto Protocol) (scalingMeasure, error) {
			return runSessionCensus(top, proto, cfg.Seed, cfg.Seconds, cfg.Shards, cfg.DesignateZCRs)
		}
		scoped, err := measure(SHARQFEC)
		if err != nil {
			return err
		}
		var flat scalingMeasure
		flatMeasured := p.TotalReceivers() <= cfg.FlatCutoff
		if flatMeasured {
			flat, err = measure(SHARQFECNoScope)
			if err != nil {
				return err
			}
		}

		// Analytic leaf-level row: the deepest (suburb) receivers carry
		// the most state, so they bound the scoped side; the flat side
		// is the all-pairs count.
		leaf := analysis.Figure8Table(p)[3]
		pt := analysis.ScalingPoint{
			Receivers:           p.TotalReceivers(),
			ScopedStateMeasured: scoped.peakState,
			FlatStateMeasured:   flat.peakState,
			ScopedStateAnalytic: leaf.RTTsMaintained,
			FlatStateAnalytic:   p.TotalReceivers(),
			ScopedMsgs:          scoped.ctrlLink,
			FlatMsgs:            flat.ctrlLink,
			ScopedDeliveries:    scoped.deliveries,
			FlatDeliveries:      flat.deliveries,
			FlatAnalytic:        !flatMeasured,
		}
		if scoped.peakState > 0 {
			if flatMeasured {
				pt.StateRatioMeasured = float64(flat.peakState) / float64(scoped.peakState)
			} else {
				// Hybrid ratio: measured scoped state against the
				// analytic flat table, so drift still reports how far
				// the scoped measurement sits from the model.
				pt.StateRatioMeasured = float64(pt.FlatStateAnalytic) / float64(scoped.peakState)
			}
		}
		pt.StateRatioAnalytic = leaf.StateReductionInv
		pt.StateDrift = pt.Drift()
		if scoped.ctrlLink > 0 {
			if flatMeasured {
				pt.MsgReduction = float64(flat.ctrlLink) / float64(scoped.ctrlLink)
			}
			pt.ScopedEscapeFrac = float64(scoped.escape) / float64(scoped.ctrlLink)
		}
		if flat.ctrlLink > 0 {
			pt.FlatEscapeFrac = float64(flat.escape) / float64(flat.ctrlLink)
		}
		points[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &analysis.ScalingReport{
		Topology: fmt.Sprintf("national %dx%dx%d, %d s/run, seed %d",
			cfg.Regions, cfg.Cities, cfg.Suburbs, int(cfg.Seconds), cfg.Seed),
		Tolerance: cfg.Tolerance,
		Points:    points,
	}, nil
}

// validate rejects, after defaulting, what would hang, panic or
// measure nothing: a non-finite or negative Seconds, a negative
// hierarchy size, a Tolerance that is not a finite positive fraction
// (NaN would pass every row, a negative one flag every row) and a
// negative FlatCutoff (which would make every flat column analytic).
// Comparisons are written so NaN fails them; runData refuses a bad
// Shards.
func (c *ScalingSweepConfig) validate() error {
	if !(isFinite64(c.Seconds) && c.Seconds >= 0) {
		return fmt.Errorf("sharqfec: Seconds = %v; want a finite time >= 0", c.Seconds)
	}
	if !(isFinite64(c.Tolerance) && c.Tolerance > 0) {
		return fmt.Errorf("sharqfec: Tolerance = %v; want a finite fraction > 0", c.Tolerance)
	}
	if c.FlatCutoff < 0 {
		return fmt.Errorf("sharqfec: FlatCutoff = %d; want >= 0", c.FlatCutoff)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"Regions", c.Regions}, {"Cities", c.Cities}, {"Suburbs", c.Suburbs}} {
		if f.v < 0 {
			return fmt.Errorf("sharqfec: %s = %d; want >= 0", f.name, f.v)
		}
	}
	for i, n := range c.Subscribers {
		if n < 0 {
			return fmt.Errorf("sharqfec: Subscribers[%d] = %d; want >= 0", i, n)
		}
	}
	return nil
}

// runSessionCensus runs the session layer alone on top (a
// runSessionOnly call: SHARQFEC for the scoped side, SHARQFECNoScope for
// the flat one) with the census engine armed, epoch snapshots every
// virtual second. The census accounts against the topology's native
// zones whatever zones the protocol runs — it is passive, so a flat run
// is measured against the boundaries scoping would have enforced — and
// it needs no event bus, so prepare puts it on the run rather than
// through TelemetryConfig, whose census counts the run's own zones. The
// driver then binds its link matrices,
// sets its hop tap on every view and registers every agent's state
// probe, as for a TelemetryConfig census. The accounting hierarchy is
// built before the run, since prepare cannot return an error. The
// designated ZCRs and snapshots are set in at() tasks with the
// simulation quiescent, so every shard count measures the same run. It
// returns the census-measured state peak and control-traffic matrix
// entries, and the run's session-message deliveries.
func runSessionCensus(top *Topology, proto Protocol, seed uint64, seconds float64, shards int, designate bool) (scalingMeasure, error) {
	hAcct, err := scoping.Build(top.spec.Zones)
	if err != nil {
		return scalingMeasure{}, err
	}
	cfg := DataConfig{Protocol: proto, Topology: top, Seed: seed, Until: 1 + seconds, Shards: shards}
	d, r, err := runSessionOnly(cfg, func(r *dataRun) {
		r.census = census.New(telemetry.NewRegistry(), hAcct, r.spec.Graph.NumNodes())
		var designated map[scoping.ZoneID]topology.NodeID
		if designate {
			designated = designatedZCRs(r.h, r.spec.Source)
		}
		// Registered before the driver's join task at the same time, so
		// every member holds the designated ZCRs of its zone chain (none
		// when designated is nil) before any starts.
		r.at(secondsToTime(memberJoinAt), func(eventq.Time) {
			for _, m := range r.members {
				mgr := r.coreAgent(m).Session()
				for _, z := range mgr.Chain() {
					if d, ok := designated[z]; ok {
						mgr.SeedZCR(z, d)
					}
				}
			}
		})
		for t := 2.0; t <= 1+seconds; t++ {
			r.at(eventq.Time(t), func(now eventq.Time) { r.census.Snapshot(float64(now)) })
		}
	})
	if err != nil {
		return scalingMeasure{}, err
	}
	cen := r.census
	cen.Snapshot(1 + seconds)

	return scalingMeasure{
		peakState: cen.PeakSessionEntries(),
		ctrlLink:  cen.LinkPkts(census.ClassControl),
		// Level 1 is the region tier of the accounting hierarchy:
		// traffic crossing it has escaped the region scoping should
		// have confined it to.
		escape:     cen.BoundaryPktsAtLevel(1, census.ClassControl),
		deliveries: d.SessionPackets,
	}, nil
}

// designatedZCRs returns the deployment-style ZCR assignment for every
// zone of h: the data source for the root zone (Start(true) declares it
// there anyway) and the lowest-ID member elsewhere. Purely a function
// of the hierarchy, so runs at every shard count seed identically and
// shard-count invariance is preserved.
func designatedZCRs(h *scoping.Hierarchy, source topology.NodeID) map[scoping.ZoneID]topology.NodeID {
	d := make(map[scoping.ZoneID]topology.NodeID, h.NumZones())
	for z := scoping.ZoneID(0); int(z) < h.NumZones(); z++ {
		if h.Parent(z) == scoping.NoZone {
			d[z] = source
			continue
		}
		best := topology.NoNode
		for _, m := range h.Members(z) {
			if best == topology.NoNode || m < best {
				best = m
			}
		}
		if best != topology.NoNode {
			d[z] = best
		}
	}
	return d
}
