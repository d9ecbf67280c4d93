package sharqfec

import (
	"fmt"
	"io"

	"sharqfec/internal/core"
	"sharqfec/internal/eventq"
	"sharqfec/internal/faults"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry/health"
	"sharqfec/internal/topology"
)

// FaultPlan is a deterministic timeline of scripted network faults —
// link failures, node crashes and restarts, member leaves, zone
// partitions, and Gilbert–Elliott burst-loss takeovers — replayed
// against a running simulation. A nil or empty plan changes nothing:
// runs are byte-identical to fault-free runs at the same seed.
type FaultPlan struct {
	plan faults.Plan
}

// NewFaultPlan returns an empty plan for the chainable builders below.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// ParseFaultPlan reads the plan-file format (one `<seconds> <keyword>
// <args...>` event per line; '#' comments):
//
//	10.5 link-down 3
//	12.0 link-up 3
//	9.0  crash 8
//	20.0 restart 8
//	9.0  leave 17
//	10.0 partition-zone 2
//	14.0 heal-zone 2
//	0    gilbert-link 3 0.08 6
//	0    gilbert-all 0.08 6
//	0    gilbert-equal-mean 6
func ParseFaultPlan(r io.Reader) (*FaultPlan, error) {
	p, err := faults.ParsePlan(r)
	if err != nil {
		return nil, err
	}
	return &FaultPlan{plan: *p}, nil
}

// Empty reports whether the plan schedules no events.
func (p *FaultPlan) Empty() bool {
	return p == nil || p.plan.Empty()
}

// Events renders the plan's timeline in plan-file syntax.
func (p *FaultPlan) Events() []string {
	if p == nil {
		return nil
	}
	out := make([]string, len(p.plan.Events))
	for i, e := range p.plan.Events {
		out[i] = e.String()
	}
	return out
}

// add appends one event and returns the plan for chaining.
func (p *FaultPlan) add(e faults.Event) *FaultPlan {
	p.plan.Events = append(p.plan.Events, e)
	return p
}

// LinkDown schedules a link failure at time at (seconds).
func (p *FaultPlan) LinkDown(at float64, link int) *FaultPlan {
	return p.add(faults.Event{At: at, Kind: faults.LinkDown, Link: link})
}

// LinkUp schedules a link recovery.
func (p *FaultPlan) LinkUp(at float64, link int) *FaultPlan {
	return p.add(faults.Event{At: at, Kind: faults.LinkUp, Link: link})
}

// Crash schedules a member failure: its agent stops sending and
// reacting (the §3.2/§5.2 ZCR failure model).
func (p *FaultPlan) Crash(at float64, node int) *FaultPlan {
	return p.add(faults.Event{At: at, Kind: faults.Crash, Node: topology.NodeID(node)})
}

// Restart schedules a crashed member's revival as a fresh late joiner.
func (p *FaultPlan) Restart(at float64, node int) *FaultPlan {
	return p.add(faults.Event{At: at, Kind: faults.Restart, Node: topology.NodeID(node)})
}

// Leave schedules a member's clean departure from the session.
func (p *FaultPlan) Leave(at float64, node int) *FaultPlan {
	return p.add(faults.Event{At: at, Kind: faults.Leave, Node: topology.NodeID(node)})
}

// PartitionZone schedules the isolation of a zone: every link joining
// its members to the rest of the network goes down.
func (p *FaultPlan) PartitionZone(at float64, zone int) *FaultPlan {
	return p.add(faults.Event{At: at, Kind: faults.PartitionZone, Zone: scoping.ZoneID(zone)})
}

// HealZone re-enables the links a matching PartitionZone disabled.
func (p *FaultPlan) HealZone(at float64, zone int) *FaultPlan {
	return p.add(faults.Event{At: at, Kind: faults.HealZone, Zone: scoping.ZoneID(zone)})
}

// GilbertLink replaces one link's Bernoulli loss with a Gilbert–Elliott
// burst process (both directions). The mean loss must not exceed
// burstLen/(1+burstLen), the most a chain of that burst length gives.
func (p *FaultPlan) GilbertLink(at float64, link int, meanLoss, burstLen float64) *FaultPlan {
	return p.add(faults.Event{At: at, Kind: faults.GilbertLink, Link: link, MeanLoss: meanLoss, BurstLen: burstLen})
}

// GilbertAll installs the burst process on every link, with the same
// bound on the mean loss as GilbertLink.
func (p *FaultPlan) GilbertAll(at float64, meanLoss, burstLen float64) *FaultPlan {
	return p.add(faults.Event{At: at, Kind: faults.GilbertAll, MeanLoss: meanLoss, BurstLen: burstLen})
}

// GilbertEqualMean installs per-link burst processes whose mean equals
// each link direction's configured Bernoulli rate — bursty arrivals at
// identical long-run loss, the comparison i.i.d. analyses assume away.
// Every lossy direction's rate must be below 1 and within GilbertLink's
// bound.
func (p *FaultPlan) GilbertEqualMean(at float64, burstLen float64) *FaultPlan {
	return p.add(faults.Event{At: at, Kind: faults.GilbertEqualMean, BurstLen: burstLen})
}

// Preset plans for the Figure-10 topology.

// ZCRCrashPlan crashes node 8 — the first leaf-zone ZCR — at t=9 s,
// mid-stream: ChaosConfig's default scenario, the §3.2/§5.2 ZCR-failure
// experiment (sharqfec-figures -fig failover).
func ZCRCrashPlan() *FaultPlan {
	return NewFaultPlan().Crash(9, 8)
}

// BackboneFlapPlan takes the source→mesh backbone link of mesh node 4
// (the highest-loss subtree) down at t=10.5 s and restores it at
// t=12 s, forcing that subtree onto the lateral mesh ring and back.
func BackboneFlapPlan() *FaultPlan {
	return NewFaultPlan().LinkDown(10.5, 3).LinkUp(12, 3)
}

// BurstLossPlan replaces every link's Bernoulli loss with Gilbert–
// Elliott bursts of the given mean length at the same per-link mean
// rate, from the start of the run.
func BurstLossPlan(burstLen float64) *FaultPlan {
	return NewFaultPlan().GilbertEqualMean(0, burstLen)
}

// ZonePartitionPlan isolates a zone between at and healAt seconds.
func ZonePartitionPlan(zone int, at, healAt float64) *FaultPlan {
	return NewFaultPlan().PartitionZone(at, zone).HealZone(healAt, zone)
}

// ChaosConfig parameterizes a fault-injection experiment on the full
// protocol. The zero value (plus a plan) runs SHARQFEC on Figure-10
// with 512 packets, join at 1 s, source on at 6 s, until 90 s, on
// RunData's driver. Unlike RunData's, its completion rate counts live
// receivers only: members crashed and not restarted, or departed, are
// left out.
type ChaosConfig struct {
	// Protocol must be a SHARQFEC variant (SRM has no ZCRs to re-elect;
	// compare it under faults via DataConfig.Faults instead).
	Protocol Protocol
	Topology *Topology
	Seed     uint64
	// NumPackets defaults to 512 (a multiple of the group size).
	NumPackets int
	// Until defaults to 90 s.
	Until float64
	// Faults defaults to ZCRCrashPlan().
	Faults *FaultPlan
	// Telemetry configures extra exports (JSONL trace, snapshot
	// interval, ring size). RunChaos keeps a bus, metrics registry,
	// span assembler and 512-event flight recorder running even when
	// this is nil — its repair-locality fraction is registry-backed,
	// and anomalous endings dump a span ledger with the event tail.
	Telemetry *TelemetryConfig
}

func (c *ChaosConfig) applyDefaults() {
	if c.Protocol == "" {
		c.Protocol = SHARQFEC
	}
	if c.Topology == nil {
		c.Topology = Figure10Topology()
	}
	if c.NumPackets == 0 {
		c.NumPackets = 512
	}
	if c.Until == 0 {
		c.Until = 90
	}
	if c.Faults == nil {
		c.Faults = ZCRCrashPlan()
	}
}

// Reelection reports the session's recovery from one scripted crash.
type Reelection struct {
	// Crashed is the failed node and Zone its leaf zone (-1 when the
	// crashed node was not a zone member).
	Crashed, Zone int
	// NewZCR is the replacement the zone's surviving members agreed on
	// (-1 if they never agreed on a live one).
	NewZCR int
	// CrashAt is when the crash fired; RecoverySeconds is how long the
	// zone took to agree on a live replacement ZCR afterwards, sampled
	// on the 0.1 s measurement grid (-1 if it never recovered).
	CrashAt, RecoverySeconds float64
	// ZoneCompletion is the completion rate of Zone's live members at
	// the end of the run (0 when Zone is -1).
	ZoneCompletion float64
}

// ChaosResult reports a fault-injection run: delivery despite the
// faults, ZCR failover timing, and repair-traffic localization.
type ChaosResult struct {
	Protocol  Protocol
	Topology  string
	Receivers int

	// CompletionRate is the fraction of (receiver, group) pairs fully
	// recovered, counted over live receivers only: members crashed and
	// not restarted, or departed, are excluded. A restarted member counts
	// every group its predecessor or it completed, each once.
	CompletionRate float64
	// Verified is true when every recovered payload matched the source.
	Verified bool
	// Reelections has one entry per scripted crash of a zone member.
	Reelections []Reelection
	// LocalRepairFrac is the fraction of repair packets delivered under
	// a non-global scope (the localization claim under dynamics).
	LocalRepairFrac float64
	// FaultDrops counts packets that died on administratively-down
	// links; FaultLog is the timeline of faults as applied.
	FaultDrops int
	FaultLog   []string

	NACKsSent, RepairsSent int

	// FlightRecord is the flight recorder's control-plane tail, dumped
	// only when the run ended anomalously (incomplete delivery among
	// survivors, or a verification failure).
	FlightRecord []string
	// Health carries the per-zone SLO verdicts when the run declared
	// objectives (ChaosConfig.Telemetry.SLO); nil otherwise. A chaos
	// scenario passes only if delivery completed, payloads verified, AND
	// Health (when present) reports no violations.
	Health *health.Report
	// Telemetry is the full observability report for the run.
	Telemetry *TelemetryReport
}

// RunChaos runs the full protocol against a scripted fault plan and
// reports recovery and localization metrics.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg.applyDefaults()
	if _, ok := cfg.Protocol.info(); !ok || cfg.Protocol == SRM {
		return nil, fmt.Errorf("sharqfec: RunChaos needs a SHARQFEC variant, got %q", cfg.Protocol)
	}
	// Chaos runs always carry telemetry: the repair-locality fraction
	// comes from the metrics registry, and the flight recorder preserves
	// the control-plane tail for anomalous endings.
	tcfg := TelemetryConfig{}
	if cfg.Telemetry != nil {
		tcfg = *cfg.Telemetry
	}
	if tcfg.FlightRecorder <= 0 {
		tcfg.FlightRecorder = 512
	}
	// Chaos runs are exactly where causal recovery spans earn their keep:
	// always assemble them, so anomalous endings can report which zone
	// and mechanism each stranded loss died in.
	tcfg.Spans = true

	var reelections []Reelection
	d, r, err := runData(DataConfig{
		Protocol: cfg.Protocol, Topology: cfg.Topology, Seed: cfg.Seed,
		NumPackets: cfg.NumPackets, Until: cfg.Until,
		Faults: cfg.Faults, Telemetry: &tcfg,
	}, func(r *dataRun) {
		// Each crash of a session member is recorded; for a zone member,
		// the zone is sampled on the paper's 0.1 s measurement grid until
		// its surviving members unanimously report a live replacement ZCR.
		r.onCrash = func(now eventq.Time, node topology.NodeID) {
			zone := r.h.LeafZone(node)
			reelections = append(reelections, Reelection{
				Crashed: int(node), Zone: int(zone), NewZCR: -1,
				CrashAt: now.Seconds(), RecoverySeconds: -1,
			})
			if zone == scoping.NoZone {
				return
			}
			idx := len(reelections) - 1
			var poll func(eventq.Time)
			poll = func(pnow eventq.Time) {
				if zcr, ok := zoneAgreement(r.h, r.coreAgent, zone, node); ok {
					re := &reelections[idx]
					re.NewZCR = int(zcr)
					re.RecoverySeconds = pnow.Seconds() - re.CrashAt
					return
				}
				if pnow.Seconds() < cfg.Until {
					r.at(pnow.Add(defaultBinWidth), poll)
				}
			}
			r.at(now.Add(defaultBinWidth), poll)
		}
	})
	if err != nil {
		return nil, err
	}
	for i := range reelections {
		re := &reelections[i]
		if zone := scoping.ZoneID(re.Zone); zone != scoping.NoZone {
			re.ZoneCompletion = r.completion(func(m topology.NodeID) bool {
				return !r.gone[m] && r.h.Contains(zone, m)
			})
		}
	}

	rep := d.Telemetry
	res := &ChaosResult{
		Protocol:        d.Protocol,
		Topology:        d.Topology,
		Receivers:       d.Receivers,
		CompletionRate:  r.completion(func(m topology.NodeID) bool { return !r.gone[m] }),
		Verified:        d.Verified,
		Reelections:     reelections,
		LocalRepairFrac: rep.LocalRepairFrac,
		FaultDrops:      d.FaultDrops,
		FaultLog:        d.FaultLog,
		NACKsSent:       d.NACKsSent,
		RepairsSent:     d.RepairsSent,
		Health:          rep.HealthReport(),
		Telemetry:       rep,
	}
	if res.CompletionRate < 1 || !res.Verified {
		// Anomalous endings go through the same forensic path as
		// health alerts: one more triggered snapshot, taken after the
		// final accounting so the tail includes every terminal event.
		r.tel.trigger.Fire(cfg.Until, fmt.Sprintf(
			"anomalous end: completion=%.4f verified=%v", res.CompletionRate, res.Verified))
		rep.dumps = r.tel.trigger.Snapshots()
		res.FlightRecord = rep.dumps[len(rep.dumps)-1].Render().Events
		// Lead the dump with the span ledger: how many losses closed, by
		// which mechanism, and how many died open — the summary a post-
		// mortem reads before the raw event tail.
		if rr := rep.RecoveryReport(); rr != nil {
			res.FlightRecord = append(rr.SummaryLines(), res.FlightRecord...)
		}
	}
	return res, nil
}

// zoneAgreement reports the live replacement ZCR the zone's surviving
// members unanimously see, if any. agent returns a node's current agent
// (nil off-session).
func zoneAgreement(h *scoping.Hierarchy, agent func(topology.NodeID) *core.Agent,
	zone scoping.ZoneID, crashed topology.NodeID) (topology.NodeID, bool) {

	agreed := topology.NodeID(-2)
	for _, m := range h.Members(zone) {
		ag := agent(m)
		if ag == nil || ag.Stopped() {
			continue
		}
		got := ag.Session().ZCR(zone)
		if got == topology.NoNode || got == crashed {
			return topology.NoNode, false
		}
		if other := agent(got); other != nil && other.Stopped() {
			return topology.NoNode, false
		}
		if agreed == -2 {
			agreed = got
		} else if got != agreed {
			return topology.NoNode, false
		}
	}
	if agreed < 0 {
		return topology.NoNode, false
	}
	return agreed, true
}

// String renders the chaos result for CLI output.
func (r *ChaosResult) String() string {
	s := fmt.Sprintf("%s on %s: completion %.2f%%, %.0f%% of repairs zone-local, %d fault drops",
		r.Protocol, r.Topology, 100*r.CompletionRate, 100*r.LocalRepairFrac, r.FaultDrops)
	for _, re := range r.Reelections {
		if re.RecoverySeconds >= 0 {
			s += fmt.Sprintf("; ZCR %d (zone %d) → %d in %.1fs", re.Crashed, re.Zone, re.NewZCR, re.RecoverySeconds)
		} else {
			s += fmt.Sprintf("; ZCR %d (zone %d) not recovered", re.Crashed, re.Zone)
		}
	}
	if r.Health != nil {
		if r.Health.Passed() {
			s += "; SLO PASS"
		} else {
			s += fmt.Sprintf("; SLO FAIL (%d violations)", r.Health.Violations())
		}
	}
	return s
}
