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
		{"joinat-nan", DataConfig{JoinAt: nan}, "JoinAt"},
		{"sourceonat-negative", DataConfig{SourceOnAt: -1}, "SourceOnAt"},
		{"queuelimit-negative", DataConfig{QueueLimit: -1}, "QueueLimit"},
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
		{"joinat-inf", ChaosConfig{JoinAt: inf}, "JoinAt"},
		{"sourceonat-nan", ChaosConfig{SourceOnAt: nan}, "SourceOnAt"},
	}
	for _, tc := range chaos {
		cfg := tc.cfg
		cfg.Topology = ChainTopology(3, 0)
		res, err := RunChaos(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunChaos %s: result %v, error %v; want an error naming %s", tc.name, res, err, tc.want)
		}
	}
}
