package analysis

import (
	"fmt"
	"math"
	"strings"
)

// ScalingPoint is one receiver-count point of the measured Figure-8
// sweep: a census-armed scoped run and its flat (single-zone)
// counterpart on the same national topology, next to the analytic
// model's prediction for the same parameters.
type ScalingPoint struct {
	Receivers int // session members excluding the source

	// Protocol state, in session RTT entries per node: the measured
	// values are the census engine's peak per-node session-table size;
	// the analytic values are the Figure-8 leaf-level "RTTs maintained"
	// and the flat all-pairs count.
	ScopedStateMeasured int64
	FlatStateMeasured   int64
	ScopedStateAnalytic int
	FlatStateAnalytic   int

	// State-reduction ratios (flat ÷ scoped): the paper's Figure-8
	// claim, measured and analytic, plus the relative drift between
	// them.
	StateRatioMeasured float64
	StateRatioAnalytic float64
	StateDrift         float64 // |measured − analytic| ÷ analytic

	// Control traffic: session-message link crossings observed by the
	// census hop tap, and the flat ÷ scoped reduction.
	ScopedMsgs   int64
	FlatMsgs     int64
	MsgReduction float64

	// Session messages delivered to members over each run (E13's
	// traffic measure; 0 on the flat side of a FlatAnalytic point).
	ScopedDeliveries int
	FlatDeliveries   int

	// Locality: the fraction of control link-crossings that cross a
	// region (level-1) boundary of the scoped zone geometry — both runs
	// account against the same geometry, so the flat fraction shows the
	// chatter scoping would have confined. Scoped should sit well below
	// flat.
	ScopedEscapeFrac float64
	FlatEscapeFrac   float64

	// FlatAnalytic marks points whose flat side was NOT measured: above
	// the sweep's flat cutoff the unscoped session is O(N²) in both
	// state and messages, so the flat columns are the analytic model's
	// and the state ratio compares measured-scoped against analytic-
	// flat. Rendered with a trailing '~' on the flat state column.
	FlatAnalytic bool
}

// Drift computes the relative disagreement between the measured and
// analytic state-reduction ratios.
func (p *ScalingPoint) Drift() float64 {
	if p.StateRatioAnalytic == 0 {
		return 0
	}
	return math.Abs(p.StateRatioMeasured-p.StateRatioAnalytic) / p.StateRatioAnalytic
}

// ScalingReport is the measured counterpart of the Figure-8 table: one
// row per receiver count, each comparing measurement against the
// analytic model and flagging rows whose state-ratio drift exceeds
// Tolerance.
type ScalingReport struct {
	Topology  string
	Tolerance float64
	Points    []ScalingPoint
}

// Drifted returns the points whose state-ratio drift exceeds the
// report's tolerance.
func (r *ScalingReport) Drifted() []ScalingPoint {
	var out []ScalingPoint
	for _, p := range r.Points {
		if p.StateDrift > r.Tolerance {
			out = append(out, p)
		}
	}
	return out
}

// String renders the measured-vs-analytic table. Rows outside the
// tolerance carry a trailing "DRIFT" marker.
func (r *ScalingReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measured Figure 8 — %s (tolerance ±%.0f%%)\n", r.Topology, 100*r.Tolerance)
	fmt.Fprintf(&b, "%8s | %21s | %19s | %8s | %17s\n",
		"", "state entries/node", "state ratio 1:N", "ctrl", "region-escape frac")
	fmt.Fprintf(&b, "%8s | %10s %10s | %6s %6s %5s | %8s | %8s %8s\n",
		"rcvrs", "scoped", "flat", "meas", "model", "drift", "redux", "scoped", "flat")
	for _, p := range r.Points {
		flag := ""
		if p.StateDrift > r.Tolerance {
			flag = "  DRIFT"
		}
		flat := fmt.Sprintf("%10d", p.FlatStateMeasured)
		// Above the flat cutoff the flat run was not simulated, so the
		// columns derived from its traffic have no measured value: leave
		// them blank rather than printing a fake zero.
		redux, flatEsc := fmt.Sprintf("%7.1fx", p.MsgReduction), fmt.Sprintf("%8.4f", p.FlatEscapeFrac)
		if p.FlatAnalytic {
			flat = fmt.Sprintf("%9d~", p.FlatStateAnalytic)
			flag += "  (flat analytic)"
			redux, flatEsc = fmt.Sprintf("%8s", "--"), fmt.Sprintf("%8s", "--")
		}
		fmt.Fprintf(&b, "%8d | %10d %s | %6.1f %6.1f %4.0f%% | %s | %8.4f %s%s\n",
			p.Receivers, p.ScopedStateMeasured, flat,
			p.StateRatioMeasured, p.StateRatioAnalytic, 100*p.StateDrift,
			redux, p.ScopedEscapeFrac, flatEsc, flag)
	}
	if d := r.Drifted(); len(d) > 0 {
		fmt.Fprintf(&b, "%d/%d points drift beyond tolerance\n", len(d), len(r.Points))
	} else {
		fmt.Fprintf(&b, "all %d points within tolerance of the analytic model\n", len(r.Points))
	}
	return b.String()
}
