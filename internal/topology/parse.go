package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// ScopedChain is the chain the simulator and the UDP binding run: Chain
// with 10 Mbit/s, 10 ms links, the source alone in the root zone and,
// past two nodes, every receiver in one child zone.
func ScopedChain(n int, loss float64) *Spec {
	s := Chain(n, 10e6, 0.010, loss)
	if n > 2 {
		s.Zones = []ZoneSpec{
			{ID: 0, Parent: -1, Leaves: []NodeID{0}},
			{ID: 1, Parent: 0, Leaves: seqNodes(1, n)},
		}
	}
	return s
}

// Parse builds the topology a command-line flag names:
//
//	figure10 | chain:N | star:N | tree:FxF…
//
// chain, star and tree links are 10 Mbit/s and lose loss of their
// packets (chain and star links take 10 ms, tree links 20 ms); figure10
// carries its own calibrated losses.
func Parse(s string, loss float64) (*Spec, error) {
	kind, arg, found := strings.Cut(s, ":")
	switch {
	case s == "figure10":
		return Figure10(Figure10Params{}), nil
	case found && (kind == "chain" || kind == "star"):
		n, err := strconv.Atoi(arg)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad %s size in %q", kind, s)
		}
		if kind == "star" {
			return Star(n, 10e6, 0.010, loss), nil
		}
		return ScopedChain(n, loss), nil
	case found && kind == "tree":
		var fanout []int
		for _, part := range strings.Split(arg, "x") {
			f, err := strconv.Atoi(part)
			if err != nil || f < 1 {
				return nil, fmt.Errorf("bad tree fanout in %q", s)
			}
			fanout = append(fanout, f)
		}
		return BalancedTree(fanout, 10e6, 0.020, loss), nil
	}
	return nil, fmt.Errorf("unknown topology %q", s)
}
