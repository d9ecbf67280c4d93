// Package core implements the SHARQFEC protocol (paper §4): two-phase
// group delivery (Loss Detection Phase, Repair Phase), LLC/ZLC loss
// accounting, SRM-style NACK and reply suppression timers with the
// paper's modifications, speculative repair queues, preemptive FEC
// injection by Zone Closest Receivers driven by an EWMA loss predictor,
// and scope escalation for unserved repairs.
//
// The feature flags in Options turn individual mechanisms off to produce
// the ablated protocols the paper evaluates: SHARQFEC(ni), SHARQFEC(so)
// and their combinations. An agent always scopes by the hierarchy its
// network carries; the unscoped "ns" variants — SHARQFEC(ns,ni,so) being
// the ECSRM-like baseline of Figures 14–15 — run on a one-zone hierarchy,
// where every NACK and repair uses the global scope and only the source
// heads a zone.
//
// On the data path a member allocates little per packet. What it sends —
// data packets, repairs, NACKs and their ancestor lists — is carved from
// the packet arena (packet.CarveData and its siblings) and handed out
// once, and a repair burst cuts its payloads from one buffer. What it
// reuses is only its own (slab.go): share-slot arrays, which an ordinary
// receiver hands back when it retires a group, and the burst cursors and
// ZLC samples its timers run. A group's timer callback is still made
// once per group (armTimer).
package core

import (
	"sharqfec/internal/telemetry"
	"sharqfec/internal/topology"
)

// Options are the ablation switches of §6.2. Scoping is not one of
// them: it is the hierarchy the agent's network carries.
type Options struct {
	// Injection enables preemptive FEC: the sender appends predicted
	// redundancy to each group, and ZCRs inject predicted repairs into
	// their zones without waiting for NACKs. When false ("ni"), all
	// repairs are NACK-driven.
	Injection bool
	// SenderOnly restricts repair generation to the source ("so");
	// receivers never become repairers.
	SenderOnly bool
	// AdaptiveTimers enables the §7 future-work extension: request
	// timer constants adapt to observed duplicate NACKs (see
	// adaptive.go). Off by default — the paper's simulations use fixed
	// timers.
	AdaptiveTimers bool
}

// Full returns the options for the complete protocol.
func Full() Options { return Options{Injection: true} }

// Protocol constants the paper fixes for its simulations (§4, §6.2).
const (
	// payloadSize is the application payload per data packet, sized so
	// the wire packet (17-byte data header) is the paper's 1000 bytes.
	payloadSize = 1000 - 17
	// EWMAOld/EWMANew weight the predicted-ZLC filter (§4: 0.75 / 0.25).
	EWMAOld, EWMANew = 0.75, 0.25
	// zlcWaitRTTs is how many RTTs (to the most distant zone member) a
	// ZCR waits after a group ends before sampling the true ZLC
	// (§4: 2.5).
	zlcWaitRTTs = 2.5
	// escalateAfter is how many NACK attempts are made at each scope
	// before widening to the next-largest zone (§4: 2).
	escalateAfter = 2
	// repairSpacing is the interval between successive repair packets
	// from one repairer, as a fraction of the data inter-packet
	// interval (§4: 0.5).
	repairSpacing = 0.5
	// ldpSlackPackets pads the loss-detection-phase timer by this many
	// inter-packet intervals beyond the expected last arrival.
	ldpSlackPackets = 2.0
	// retainData is how long (seconds) an ordinary receiver keeps a
	// completed group's payloads available for repairing peers. The
	// source and ZCRs retain indefinitely.
	retainData = 5
)

// Config carries the protocol parameters a run may set. DefaultConfig
// reproduces the values the paper states for its simulations.
type Config struct {
	// Source is the data sender's node ID.
	Source topology.NodeID
	// GroupK is the number of data packets per FEC group (paper: 16).
	GroupK int
	// Rate is the source's constant bit rate in bits/s (paper: 800 kbit/s).
	Rate float64
	// NumPackets is the number of original data packets (paper: 1024).
	NumPackets int
	// C1, C2 shape the request timer: delay ~ 2^i·U[C1·d, (C1+C2)·d]
	// with d the estimated one-way distance to the source (paper: 2, 2).
	C1, C2 float64
	// D1, D2 shape the reply timer: delay ~ U[D1·d, (D1+D2)·d] with d
	// the distance to the NACK sender (paper: 1, 1). No backoff.
	D1, D2 float64

	Options Options

	// Telemetry receives the agent's protocol events (NACK/repair
	// lifecycle, losses, decodes, injections) that its sinks read. Every
	// emission site asks Bus.Wants first, so a kind no sink reads, or a
	// nil bus, costs one mask test.
	Telemetry *telemetry.Bus

	// NewController, when non-nil, builds the per-agent rate controller
	// sizing preemptive FEC injection (one controller per agent). nil —
	// the default — uses the paper's static EWMA predictor, so the zero
	// value stays byte-identical to the pre-Controller protocol per seed.
	NewController func() Controller
}

// DefaultConfig returns the paper's §6.2 parameters with the full
// protocol enabled.
func DefaultConfig() Config {
	return Config{
		Source:     0,
		GroupK:     16,
		Rate:       800e3,
		NumPackets: 1024,
		C1:         2,
		C2:         2,
		D1:         1,
		D2:         1,
		Options:    Full(),
	}
}

// InterPacket returns the source's data inter-packet interval in seconds
// (wire size × 8 / rate) — 10 ms for the paper's parameters.
func (c *Config) InterPacket() float64 {
	wire := float64(payloadSize + 17)
	return wire * 8 / c.Rate
}

// NumGroups returns the number of FEC groups the stream divides into.
func (c *Config) NumGroups() int {
	return (c.NumPackets + c.GroupK - 1) / c.GroupK
}
