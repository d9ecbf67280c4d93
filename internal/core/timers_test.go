package core

import (
	"fmt"
	"testing"

	"sharqfec/internal/fabric"
	"sharqfec/internal/topology"
)

// groupTimers names a group's timers for the dispatch tests.
var groupTimers = []struct {
	name   string
	handle func(g *group) *fabric.Timer
}{
	{"ldp", func(g *group) *fabric.Timer { return &g.ldpTimer }},
	{"request", func(g *group) *fabric.Timer { return &g.reqTimer }},
	{"reply", func(g *group) *fabric.Timer { return &g.replyTimer }},
	{"retire", func(g *group) *fabric.Timer { return &g.retire }},
}

// TestGroupTimerRunsOnlyTheOneThatFired checks the group's shared timer
// callback: after one timer was stopped, a later fire of another runs
// that one's handler and no other — the stopped handle, zeroed by
// stopTimer, is never taken for the timer that fired.
func TestGroupTimerRunsOnlyTheOneThatFired(t *testing.T) {
	for _, stop := range []int{1, 2} { // request, reply: the timers core stops
		for fire := range groupTimers {
			if fire == stop {
				continue
			}
			name := fmt.Sprintf("stop %s, fire %s", groupTimers[stop].name, groupTimers[fire].name)
			t.Run(name, func(t *testing.T) {
				w := quietWorld(t, topology.Chain(3, 10e6, 0.010, 0), smallCfg(), 70)
				a := w.agents[2]
				a.joined = true
				g := a.ensureGroup(0)
				// The reply and the retirement act on a complete group,
				// the LDP end and the request on an incomplete one.
				complete := fire >= 2
				if complete {
					g.complete = true
					g.kept = a.slotArray()
					rootLevel(a, g).pending = 1
				} else {
					g.inRepair = true
				}
				stopped := groupTimers[stop].handle(g)
				a.armTimer(g, stopped, 1)
				a.armTimer(g, groupTimers[fire].handle(g), 2)
				stopTimer(stopped)
				if *stopped != (fabric.Timer{}) {
					t.Fatal("stopTimer left the handle set")
				}
				if !w.net.Q.Step() || w.net.Q.Now() != 2 {
					t.Fatalf("the armed timer did not fire at 2 (now %v)", w.net.Q.Now())
				}
				ran := []bool{
					a.rrTotal > 0, // ldpExpired tallies the receiver report
					a.Stats.NACKsSent+a.Stats.NACKsSuppressed > 0, // requestTimerFired requests
					g.sendBusy,                // serveQueuedRepairs starts a burst
					complete && g.kept == nil, // the retirement drops the shares
				}
				for i, r := range ran {
					if r != (i == fire) {
						t.Errorf("%s handler ran: %v, want %v", groupTimers[i].name, r, i == fire)
					}
				}
				// The handler may re-arm its own timer, but not leave the
				// fired handle set.
				if h := *groupTimers[fire].handle(g); h != (fabric.Timer{}) && !h.Active() {
					t.Error("the fired timer's handle is still set")
				}
			})
		}
	}
}

// TestGroupTimerRearmAllocatesNothing pins what the shared callback buys:
// once a group has armed a timer, re-arming its request and reply timers
// allocates nothing.
func TestGroupTimerRearmAllocatesNothing(t *testing.T) {
	w := quietWorld(t, topology.Chain(3, 10e6, 0.010, 0), smallCfg(), 71)
	a := w.agents[2]
	a.joined = true
	g := a.ensureGroup(0)
	rearm := func() {
		stopTimer(&g.reqTimer)
		a.armRequestTimer(1, g)
		stopTimer(&g.replyTimer)
		a.armReplyTimer(1, g, nil)
	}
	rearm()
	if !g.reqTimer.Active() || !g.replyTimer.Active() {
		t.Fatal("an open group armed no request or reply timer")
	}
	if got := testing.AllocsPerRun(100, rearm); got != 0 {
		t.Errorf("re-arming an open group's request and reply timers: %v allocations, want 0", got)
	}
}
