package sharqfec

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// sessionPinsFile holds the whole result structs the session-layer
// experiments produced when they were pinned, one JSON value per case
// (JSON round-trips float64 exactly, and keeps nil and empty slices
// apart).
const sessionPinsFile = "testdata/session_results.json"

// sessionPinCases are the session-layer experiments of §6.1 and §5.1 as
// sharqfec-figures runs them: ZCR election on the four topologies of
// -fig zcr, scoped-vs-flat session traffic of -fig session (a
// one-point scaling sweep), and the indirect RTT estimation of Figures
// 11–13; and the census-measured Figure-8 sweep of -fig 8m, once with
// elected ZCRs on both the scoped and the flat side and once with
// designated ZCRs on two shards, the flat side left to the analytic
// model.
var sessionPinCases = []struct {
	name string
	run  func() (any, error)
}{
	{"zcr/chain-6", func() (any, error) { return RunZCRElection(ChainTopology(6, 0), 1998, 30) }},
	{"zcr/star-5", func() (any, error) { return RunZCRElection(StarTopology(5, 0), 1998, 30) }},
	{"zcr/tree-3x2", func() (any, error) { return RunZCRElection(TreeTopology([]int{3, 2}, 0), 1998, 30) }},
	{"zcr/figure10", func() (any, error) { return RunZCRElection(Figure10Topology(), 1998, 30) }},
	{"session/national-3x3x3x5", func() (any, error) {
		return RunScalingSweep(ScalingSweepConfig{Regions: 3, Cities: 3, Suburbs: 3, Subscribers: []int{5}, Seed: 1998, Seconds: 10})
	}},
	{"rtt/sender-3", func() (any, error) { return RunRTT(RTTConfig{Sender: 3, Seed: 1998}) }},
	{"rtt/sender-25", func() (any, error) { return RunRTT(RTTConfig{Sender: 25, Seed: 1998}) }},
	{"rtt/sender-36", func() (any, error) { return RunRTT(RTTConfig{Sender: 36, Seed: 1998}) }},
	{"scaling/national-2x2x2-elected", func() (any, error) {
		return RunScalingSweep(ScalingSweepConfig{Subscribers: []int{2, 4}, Seed: 11, Seconds: 5})
	}},
	{"scaling/national-3x3x3x2-designated", func() (any, error) {
		return RunScalingSweep(ScalingSweepConfig{
			Regions: 3, Cities: 3, Suburbs: 3, Subscribers: []int{2}, Seed: 11, Seconds: 5,
			DesignateZCRs: true, Shards: 2, FlatCutoff: 1,
		})
	}},
}

// TestSessionResultsPinned compares every field of the session-layer
// experiments' results, not only their Correct and Reduction verdicts,
// against the pinned structs: a change to how these experiments are
// driven must not change what they measure.
func TestSessionResultsPinned(t *testing.T) {
	raw, err := os.ReadFile(sessionPinsFile)
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]json.RawMessage
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatalf("%s: %v", sessionPinsFile, err)
	}
	for _, tc := range sessionPinCases {
		got, err := tc.run()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		pin, ok := pins[tc.name]
		if !ok {
			t.Errorf("%s: no pinned result in %s", tc.name, sessionPinsFile)
			continue
		}
		want := reflect.New(reflect.TypeOf(got).Elem()).Interface()
		if err := json.Unmarshal(pin, want); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			gotJSON, _ := json.Marshal(got)
			t.Errorf("%s: result drifted from the pin\n got %s\nwant %s", tc.name, gotJSON, pin)
		}
	}
}
