package packet

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"sharqfec/internal/topology"
)

// roundTrip marshals p, checks the length against WireSize, unmarshals
// and returns the decoded packet.
func roundTrip(t *testing.T, p Packet) Packet {
	t.Helper()
	b, err := p.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal %s: %v", p.Kind(), err)
	}
	if len(b) != p.WireSize() {
		t.Fatalf("%s: marshal length %d != WireSize %d", p.Kind(), len(b), p.WireSize())
	}
	q, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("unmarshal %s: %v", p.Kind(), err)
	}
	if q.Kind() != p.Kind() {
		t.Fatalf("round trip changed kind %s -> %s", p.Kind(), q.Kind())
	}
	return q
}

func TestDataRoundTrip(t *testing.T) {
	p := &Data{Origin: 7, Seq: 123456, Group: 77, Index: 3, GroupK: 16, Payload: []byte("hello sharqfec")}
	q := roundTrip(t, p).(*Data)
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("data round trip mismatch:\n%+v\n%+v", p, q)
	}
}

func TestDataEmptyPayload(t *testing.T) {
	p := &Data{Origin: 1, Seq: 2, Group: 3, Index: 0, GroupK: 4}
	q := roundTrip(t, p).(*Data)
	if len(q.Payload) != 0 {
		t.Fatalf("payload = %v", q.Payload)
	}
}

func TestRepairRoundTrip(t *testing.T) {
	p := &Repair{Origin: 55, Group: 9, Index: 18, GroupK: 16, NewMaxSeq: 160, Zone: -1, Payload: bytes.Repeat([]byte{0xAB}, 1000)}
	q := roundTrip(t, p).(*Repair)
	if !reflect.DeepEqual(p, q) {
		t.Fatal("repair round trip mismatch")
	}
}

func TestNACKRoundTrip(t *testing.T) {
	p := &NACK{
		Origin: 101, Group: 4, LLC: 5, Needed: 3, MaxSeq: 80, Zone: 12,
		Ancestors: []AncestorRTT{{ZCR: 5, RTT: 0.125}, {ZCR: 2, RTT: 0.0625}},
	}
	q := roundTrip(t, p).(*NACK)
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("nack round trip mismatch:\n%+v\n%+v", p, q)
	}
}

func TestNACKNoAncestors(t *testing.T) {
	p := &NACK{Origin: 1, Group: 2, LLC: 3, Needed: 1, MaxSeq: 10, Zone: 0}
	q := roundTrip(t, p).(*NACK)
	if len(q.Ancestors) != 0 {
		t.Fatal("ancestors should be empty")
	}
}

func TestSessionRoundTrip(t *testing.T) {
	p := &Session{
		Origin: 11, Zone: 4, SentAt: 6.75, ZCR: 5, ZCRParentDist: 0.25, MaxSeq: 512,
		RRWorstLoss: 0.25, RRMembers: 17,
		Entries: []SessionEntry{
			{Peer: 12, SinceHeard: 1.5, RTT: 0.0078125, Echo: 6.125},
			{Peer: 13, SinceHeard: 0.5, RTT: 0.015625, Echo: 6.25},
			{Peer: 5, SinceHeard: 2, RTT: 0.03125, Echo: 5.5},
		},
	}
	q := roundTrip(t, p).(*Session)
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("session round trip mismatch:\n%+v\n%+v", p, q)
	}
}

func TestZCRMessagesRoundTrip(t *testing.T) {
	for _, p := range []Packet{
		&ZCRChallenge{Origin: 3, Zone: 2, SentAt: 1.0625},
		&ZCRResponse{Origin: 0, Zone: 2, Challenger: 3, ProcDelay: 0.001953125},
		&ZCRTakeover{Origin: 4, Zone: 2, DistToParent: 0.125},
	} {
		q := roundTrip(t, p)
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("%s round trip mismatch:\n%+v\n%+v", p.Kind(), p, q)
		}
	}
}

func TestLossyFlags(t *testing.T) {
	lossy := []Packet{&Data{}, &Repair{}}
	lossless := []Packet{&NACK{}, &Session{}, &ZCRChallenge{}, &ZCRResponse{}, &ZCRTakeover{}}
	for _, p := range lossy {
		if !p.Lossy() {
			t.Fatalf("%s should be lossy", p.Kind())
		}
	}
	for _, p := range lossless {
		if p.Lossy() {
			t.Fatalf("%s should be lossless (paper §6.2 setup)", p.Kind())
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
	if _, err := Unmarshal([]byte{0}); err == nil {
		t.Fatal("invalid tag accepted")
	}
	if _, err := Unmarshal([]byte{99}); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	packets := []Packet{
		&Data{Origin: 1, Seq: 2, Group: 3, GroupK: 8, Payload: []byte{1, 2, 3}},
		&Repair{Origin: 1, Group: 2, Index: 9, GroupK: 8, Payload: []byte{9}},
		&NACK{Origin: 1, Group: 2, Ancestors: []AncestorRTT{{ZCR: 1, RTT: 1}}},
		&Session{Origin: 1, Entries: []SessionEntry{{Peer: 2}}},
		&ZCRChallenge{Origin: 1},
		&ZCRResponse{Origin: 1},
		&ZCRTakeover{Origin: 1},
	}
	for _, p := range packets {
		b, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(b); cut++ {
			if _, err := Unmarshal(b[:cut]); err == nil {
				t.Fatalf("%s truncated to %d bytes accepted", p.Kind(), cut)
			}
		}
	}
}

func TestUnmarshalTrailingBytes(t *testing.T) {
	b, _ := (&ZCRChallenge{Origin: 1, Zone: 0, SentAt: 1}).MarshalBinary()
	if _, err := Unmarshal(append(b, 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestNegativeZoneSurvives(t *testing.T) {
	p := &NACK{Origin: 1, Group: 1, Zone: -7}
	q := roundTrip(t, p).(*NACK)
	if q.Zone != -7 {
		t.Fatalf("zone = %d, want -7", q.Zone)
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeData.String() != "DATA" || TypeNACK.String() != "NACK" {
		t.Fatal("type strings wrong")
	}
	if Type(200).String() != "TYPE(200)" {
		t.Fatalf("unknown type string = %q", Type(200).String())
	}
}

func TestPaperPacketSize(t *testing.T) {
	// The paper's source sends thousand-byte data packets; the payload
	// needed to hit exactly 1000 wire bytes is 1000 - header.
	p := &Data{Payload: make([]byte, 1000-dataHeader)}
	if p.WireSize() != 1000 {
		t.Fatalf("WireSize = %d, want 1000", p.WireSize())
	}
}

// Property: Data packets survive round trips for arbitrary field values.
func TestPropertyDataRoundTrip(t *testing.T) {
	f := func(origin uint16, seq, group uint32, index, groupK uint8, payload []byte) bool {
		if len(payload) > math.MaxUint16 {
			payload = payload[:math.MaxUint16]
		}
		p := &Data{Origin: topology.NodeID(origin), Seq: seq, Group: group, Index: index, GroupK: groupK, Payload: payload}
		b, err := p.MarshalBinary()
		if err != nil {
			return false
		}
		q, err := Unmarshal(b)
		if err != nil {
			return false
		}
		d := q.(*Data)
		return d.Origin == p.Origin && d.Seq == p.Seq && d.Group == p.Group &&
			d.Index == p.Index && d.GroupK == p.GroupK && bytes.Equal(d.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: NACK ancestor lists survive round trips (float32 precision on
// the wire, so compare at float32 resolution).
func TestPropertyNACKRoundTrip(t *testing.T) {
	f := func(origin uint16, group uint32, llc, needed uint8, zone int16, rtts []float32) bool {
		if len(rtts) > 255 {
			rtts = rtts[:255]
		}
		p := &NACK{Origin: topology.NodeID(origin), Group: group, LLC: llc, Needed: needed, Zone: zone}
		for i, r := range rtts {
			p.Ancestors = append(p.Ancestors, AncestorRTT{ZCR: topology.NodeID(i), RTT: float64(r)})
		}
		b, err := p.MarshalBinary()
		if err != nil {
			return false
		}
		q, err := Unmarshal(b)
		if err != nil {
			return false
		}
		n := q.(*NACK)
		if len(n.Ancestors) != len(p.Ancestors) {
			return false
		}
		for i := range n.Ancestors {
			got := float32(n.Ancestors[i].RTT)
			want := rtts[i]
			if got != want && !(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Unmarshal never panics on arbitrary input — it either
// decodes or returns an error.
func TestPropertyUnmarshalNeverPanics(t *testing.T) {
	f := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single byte of a valid encoding either fails to
// decode or decodes without panicking — no corruption crashes.
func TestPropertyBitflipSafety(t *testing.T) {
	packets := []Packet{
		&Data{Origin: 1, Seq: 2, Group: 3, Index: 1, GroupK: 16, Payload: []byte("payload")},
		&NACK{Origin: 1, Group: 2, LLC: 3, Needed: 1, MaxSeq: 10, Zone: 1,
			Ancestors: []AncestorRTT{{ZCR: 5, RTT: 0.1}}},
		&Session{Origin: 1, Zone: 2, SentAt: 3, ZCR: 4, MaxSeq: 5,
			Entries: []SessionEntry{{Peer: 6, SinceHeard: 1, RTT: 0.1, Echo: 2}}},
	}
	for _, p := range packets {
		buf, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			for _, flip := range []byte{0x01, 0x80, 0xFF} {
				mut := append([]byte(nil), buf...)
				mut[i] ^= flip
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s: panic on byte %d flip %#x: %v", p.Kind(), i, flip, r)
						}
					}()
					_, _ = Unmarshal(mut)
				}()
			}
		}
	}
}

func TestWireSizesReasonable(t *testing.T) {
	// Control packets must stay far smaller than data packets — the
	// protocol's overhead story depends on it.
	if (&NACK{Ancestors: make([]AncestorRTT, 3)}).WireSize() > 64 {
		t.Fatal("NACK too large")
	}
	if (&ZCRChallenge{}).WireSize() > 32 || (&ZCRResponse{}).WireSize() > 32 || (&ZCRTakeover{}).WireSize() > 32 {
		t.Fatal("ZCR messages too large")
	}
	s := &Session{Entries: make([]SessionEntry, 10)}
	if s.WireSize() > 300 {
		t.Fatalf("session message with 10 entries is %d bytes", s.WireSize())
	}
}

// FuzzUnmarshal feeds arbitrary datagrams to Unmarshal, the parser a UDP
// socket feeds directly. It must never panic, and whatever it accepts
// must re-marshal to WireSize bytes that decode and re-marshal to the
// same bytes: one round trip reaches a fixed point. (Not the input bytes
// themselves: a signalling NaN in a float32 field comes back quiet.)
func FuzzUnmarshal(f *testing.F) {
	for _, p := range []Packet{
		&Data{Origin: 1, Seq: 2, Group: 3, Index: 1, GroupK: 16, Payload: []byte("payload")},
		&Repair{Origin: 1, Group: 3, Index: 17, GroupK: 16, NewMaxSeq: 18, Zone: -1, Payload: []byte("parity")},
		&NACK{Origin: 1, Group: 2, LLC: 3, Needed: 1, MaxSeq: 10, Zone: 1,
			Ancestors: []AncestorRTT{{ZCR: 5, RTT: 0.1}}},
		&Session{Origin: 1, Zone: 2, SentAt: 3, ZCR: 4, MaxSeq: 5, RRWorstLoss: 0.25, RRMembers: 3,
			Entries: []SessionEntry{{Peer: 6, SinceHeard: 1, RTT: 0.1, Echo: 2}}},
		&ZCRChallenge{Origin: 3, Zone: 2, SentAt: 1.0625},
		&ZCRResponse{Origin: 0, Zone: 2, Challenger: 3, ProcDelay: 0.001953125},
		&ZCRTakeover{Origin: 4, Zone: 2, DistToParent: 0.125},
	} {
		b, err := p.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		if err != nil {
			return
		}
		once, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted %s does not marshal: %v", p.Kind(), err)
		}
		if len(once) != p.WireSize() {
			t.Fatalf("%s: marshal length %d != WireSize %d", p.Kind(), len(once), p.WireSize())
		}
		q, err := Unmarshal(once)
		if err != nil {
			t.Fatalf("re-marshalled %s does not decode: %v", p.Kind(), err)
		}
		twice, err := q.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded %s does not marshal: %v", q.Kind(), err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("%s: round trip is not a fixed point:\n%x\n%x", p.Kind(), once, twice)
		}
	})
}
