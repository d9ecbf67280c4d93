package session

// What one datagram may make a member do at the session layer: a zone
// field is checked against the hierarchy before any state is touched.

import (
	"math"
	"testing"

	"sharqfec/internal/packet"
	"sharqfec/internal/simrand"
)

// TestUnknownZoneIsRefused: scoped delivery never hands a member a zone
// the hierarchy does not have, but a socket can carry any 16-bit one. A
// session message or a takeover for such a zone used to open a zone
// record (whose watchdog later indexed the hierarchy out of range), and a
// challenge for one indexed it at once.
func TestUnknownZoneIsRefused(t *testing.T) {
	msgs := map[string]func(z int16) packet.Packet{
		"Session.Zone": func(z int16) packet.Packet {
			return &packet.Session{Origin: 4, Zone: z, SentAt: 9.9, ZCR: 4}
		},
		"ZCRTakeover.Zone": func(z int16) packet.Packet {
			return &packet.ZCRTakeover{Origin: 4, Zone: z, DistToParent: 0.01}
		},
		"ZCRChallenge.Zone": func(z int16) packet.Packet {
			return &packet.ZCRChallenge{Origin: 4, Zone: z, SentAt: 9.9}
		},
	}
	for name, msg := range msgs {
		t.Run(name, func(t *testing.T) {
			net := &stubNet{h: modelZones()}
			net.q.RunUntil(10)
			m := New(3, net, DefaultConfig(), simrand.New(7).StreamN("session", 3))
			m.Start(false)
			zones := len(m.zones)
			bad := []int16{int16(net.h.NumZones()), 999, -5, math.MinInt16, math.MaxInt16}
			for _, z := range bad {
				m.Receive(net.q.Now(), msg(z))
			}
			if m.BadZones != len(bad) || len(m.zones) != zones {
				t.Fatalf("BadZones = %d, zone records %d; want %d, %d", m.BadZones, len(m.zones), len(bad), zones)
			}
			net.q.RunUntil(30) // every timer armed so far fires
			m.Receive(net.q.Now(), msg(int16(m.chain[0])))
			if m.BadZones != len(bad) || len(m.zones) != zones {
				t.Fatalf("a message for the member's own zone was refused (BadZones = %d) or opened a record", m.BadZones)
			}
		})
	}
}
