package core

import (
	"sharqfec/internal/eventq"
	"sharqfec/internal/scoping"
	"sharqfec/internal/telemetry"
)

// EmitUnrecoveredLosses posts a terminal KindLossUnrecovered event for
// every loss this agent declared whose group never decoded, so span
// assembly can distinguish slow recoveries from permanent ones instead
// of inferring the difference from silence. The facade calls it once
// per agent when the run ends (crashed agents included — their stranded
// losses are exactly the interesting ones). Emission order is
// deterministic: ascending group id, ascending sequence. A no-op when
// no sink reads the kind.
//
// B = 1 marks a loss whose original did arrive late while the group
// still fell short of k shares — data in hand, group never verified.
func (a *Agent) EmitUnrecoveredLosses(now eventq.Time) {
	if !a.tel.Wants(telemetry.KindLossUnrecovered) {
		return
	}
	for gid, g := range a.groups {
		if g == nil || g.complete {
			continue
		}
		base := int64(gid) * int64(a.cfg.GroupK)
		for idx := 0; idx < g.k; idx++ {
			if !g.lossed(idx) {
				continue
			}
			late := int64(0)
			if g.seen(idx) {
				late = 1
			}
			a.emit(now, telemetry.KindLossUnrecovered, scoping.NoZone, int64(gid), base+int64(idx), late, 0)
		}
	}
}
