package sharqfec

import (
	"math"
	"strings"
	"testing"
)

// TestPayloadsMatch covers the one payload check every driver uses.
func TestPayloadsMatch(t *testing.T) {
	src := [][]byte{{1, 2, 3}, {4, 5, 6}}
	same := [][]byte{{1, 2, 3}, {4, 5, 6}}
	flipped := [][]byte{{1, 2, 3}, {4, 5, 7}}
	for _, tc := range []struct {
		name      string
		got, want [][]byte
		ok        bool
	}{
		{"equal", same, src, true},
		{"flipped-byte", flipped, src, false},
		{"short-group", same[:1], src, false},
		{"nil-source-group", same, nil, false},
	} {
		if got := payloadsMatch(tc.got, tc.want); got != tc.ok {
			t.Errorf("%s: payloadsMatch = %v, want %v", tc.name, got, tc.ok)
		}
	}
}

// TestRunConfigValidation holds the numbers that used to panic, hang
// or silently simulate nothing (each reachable from sharqfec-sim
// flags): both drivers must refuse them up front.
func TestRunConfigValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	data := []struct {
		name string
		cfg  DataConfig
		want string
	}{
		{"packets-negative", DataConfig{NumPackets: -16}, "NumPackets"},
		{"until-nan", DataConfig{Until: nan}, "Until"},
		{"until-negative", DataConfig{Until: -5}, "Until"},
		{"until-inf", DataConfig{Until: inf}, "Until"},
		{"until-inf-sampled", DataConfig{Until: inf, Telemetry: &TelemetryConfig{MetricsInterval: 1}}, "Until"},
		{"sourceonat-negative", DataConfig{SourceOnAt: -1}, "SourceOnAt"},
		{"queuelimit-negative", DataConfig{QueueLimit: -1}, "QueueLimit"},
		{"groupk-negative", DataConfig{GroupK: -4}, "GroupK"},
		{"metrics-interval-nanosecond", DataConfig{Telemetry: &TelemetryConfig{MetricsInterval: 1e-9}}, "MetricsInterval"},
		{"metrics-interval-below-floor", DataConfig{Telemetry: &TelemetryConfig{MetricsInterval: 5e-4}}, "MetricsInterval"},
		{"metrics-interval-negative", DataConfig{Telemetry: &TelemetryConfig{MetricsInterval: -1}}, "MetricsInterval"},
	}
	for _, tc := range data {
		for _, proto := range []Protocol{SHARQFEC, SRM} {
			cfg := tc.cfg
			cfg.Protocol = proto
			cfg.Topology = ChainTopology(3, 0)
			res, err := RunData(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("RunData %s/%s: result %v, error %v; want an error naming %s", tc.name, proto, res, err, tc.want)
			}
		}
	}
	chaos := []struct {
		name string
		cfg  ChaosConfig
		want string
	}{
		{"packets-negative", ChaosConfig{NumPackets: -16}, "NumPackets"},
		{"until-nan", ChaosConfig{Until: nan}, "Until"},
		{"until-negative", ChaosConfig{Until: -5}, "Until"},
		{"until-inf", ChaosConfig{Until: inf}, "Until"},
	}
	for _, tc := range chaos {
		cfg := tc.cfg
		cfg.Topology = ChainTopology(3, 0)
		res, err := RunChaos(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunChaos %s: result %v, error %v; want an error naming %s", tc.name, res, err, tc.want)
		}
	}
	// The session-only entry points (whose horizons used to hang, or at
	// -5 return an empty result), the scaling sweep, the RTT probe count
	// (-1 used to panic), the late-join time, the timer sweep's
	// multipliers (NaN used to panic, 0 and -1 hang, +Inf return a
	// run without recovery), and link losses, which every run meets in
	// the data driver.
	chain := ChainTopology(3, 0)
	lossy := func(loss float64) DataConfig { return DataConfig{Protocol: SHARQFEC, Topology: ChainTopology(4, loss)} }
	others := []struct {
		name string
		err  error
		want string
	}{
		{"zcr-until-nan", errOf(RunZCRElection(chain, 1, nan)), "Until"},
		{"zcr-until-inf", errOf(RunZCRElection(chain, 1, inf)), "Until"},
		{"zcr-until-negative", errOf(RunZCRElection(chain, 1, -5)), "Until"},
		{"sweep-seconds-nan", errOf(RunScalingSweep(ScalingSweepConfig{Seconds: nan})), "Seconds"},
		{"sweep-seconds-inf", errOf(RunScalingSweep(ScalingSweepConfig{Seconds: inf})), "Seconds"},
		{"sweep-seconds-negative", errOf(RunScalingSweep(ScalingSweepConfig{Seconds: -5})), "Seconds"},
		{"sweep-seconds-minus-one", errOf(RunScalingSweep(ScalingSweepConfig{Seconds: -1})), "Seconds"},
		{"sweep-seconds-minus-half", errOf(RunScalingSweep(ScalingSweepConfig{Seconds: -0.5})), "Seconds"},
		{"sweep-regions-negative", errOf(RunScalingSweep(ScalingSweepConfig{Regions: -1})), "Regions"},
		{"sweep-cities-negative", errOf(RunScalingSweep(ScalingSweepConfig{Cities: -1})), "Cities"},
		{"sweep-suburbs-negative", errOf(RunScalingSweep(ScalingSweepConfig{Suburbs: -1})), "Suburbs"},
		{"sweep-subscribers-negative", errOf(RunScalingSweep(ScalingSweepConfig{Subscribers: []int{2, -1}})), "Subscribers[1]"},
		{"sweep-tolerance-nan", errOf(RunScalingSweep(ScalingSweepConfig{Tolerance: nan})), "Tolerance"},
		{"sweep-tolerance-negative", errOf(RunScalingSweep(ScalingSweepConfig{Tolerance: -0.1})), "Tolerance"},
		{"sweep-flatcutoff-negative", errOf(RunScalingSweep(ScalingSweepConfig{FlatCutoff: -1})), "FlatCutoff"},
		// A join at or after the run's horizon never fires and used to
		// read as a joiner that failed to catch up.
		{"latejoin-at-horizon", errOf(RunLateJoin(1, 120)), "joinAt"},
		{"latejoin-past-horizon", errOf(RunLateJoin(1, 200)), "joinAt"},
		{"timer-multiplier-nan", errOf(RunTimerSweep(1, []float64{nan})), "multiplier"},
		{"timer-multiplier-inf", errOf(RunTimerSweep(1, []float64{inf})), "multiplier"},
		{"timer-multiplier-zero", errOf(RunTimerSweep(1, []float64{0})), "multiplier"},
		{"timer-multiplier-negative", errOf(RunTimerSweep(1, []float64{-1})), "multiplier"},
		{"loss-negative", errOf(RunData(lossy(-1))), "link 0"},
		{"loss-nan", errOf(RunData(lossy(nan))), "link 0"},
		{"loss-above-one", errOf(RunData(lossy(1.5))), "link 0"},
		{"loss-above-one-session", errOf(RunZCRElection(ChainTopology(4, 1.5), 1, 0)), "link 0"},
		// A fault plan is refused before the run, never mid-run: an
		// equal-mean burst over a link that loses everything used to panic.
		{"burst-over-lossless-link", errOf(RunData(DataConfig{Protocol: SHARQFEC, Topology: ChainTopology(3, 1),
			NumPackets: 16, Until: 10, Faults: BurstLossPlan(4)})), "link 0 direction 0->1"},
		// ...and so did restarting a member that had left.
		{"restart-after-leave", errOf(RunData(DataConfig{Protocol: SHARQFEC, Topology: ChainTopology(4, 0),
			NumPackets: 16, Until: 10, Faults: NewFaultPlan().Leave(1, 2).Restart(2, 2)})), "node 2 is not a session member"},
		// ...and restarting a live member, which ran a second agent on it.
		{"restart-of-live-member", errOf(RunData(DataConfig{Protocol: SHARQFEC, Topology: ChainTopology(4, 0),
			NumPackets: 16, Until: 10, Faults: NewFaultPlan().Restart(2, 2)})), "node 2 is not down"},
	}
	for _, tc := range others {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %v; want an error naming %s", tc.name, tc.err, tc.want)
		}
	}
}

// errOf drops a result and keeps its error.
func errOf[T any](_ T, err error) error { return err }
