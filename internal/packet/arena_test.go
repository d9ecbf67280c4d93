package packet

import (
	"sync"
	"testing"
	"unsafe"

	"sharqfec/internal/topology"
)

// TestArenaSharedAcrossGoroutines: senders on different goroutines (the
// shards of one run) carve from the one pool at once. Every carve is
// stamped with its goroutine and sequence number; once all are done,
// each packet and list entry must still hold its own stamp.
func TestArenaSharedAcrossGoroutines(t *testing.T) {
	const workers, carves = 4, 2000
	type carved struct {
		msg  *Session
		nack *NACK
		rep  *Repair
		data *Data
	}
	got := make([][]carved, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range carves {
				stamp := topology.NodeID(w*carves + i)
				c := carved{msg: CarveSession(i % 40), nack: CarveNACK(), rep: CarveRepair(), data: CarveData()}
				c.msg.Origin, c.msg.MaxSeq = topology.NodeID(w), uint32(i)
				for j := range c.msg.Entries {
					c.msg.Entries[j].Peer = stamp
				}
				c.nack.Origin, c.nack.Ancestors = stamp, CarveAncestors(i%5)
				for j := range c.nack.Ancestors {
					c.nack.Ancestors[j].ZCR = stamp
				}
				c.rep.Origin, c.data.Origin = stamp, stamp
				got[w] = append(got[w], c)
			}
		}()
	}
	wg.Wait()
	for w, cs := range got {
		for i, c := range cs {
			stamp := topology.NodeID(w*carves + i)
			if c.msg.Origin != topology.NodeID(w) || c.msg.MaxSeq != uint32(i) || len(c.msg.Entries) != i%40 {
				t.Fatalf("worker %d carve %d: header %d/%d with %d entries", w, i, c.msg.Origin, c.msg.MaxSeq, len(c.msg.Entries))
			}
			for _, e := range c.msg.Entries {
				if e.Peer != stamp {
					t.Fatalf("worker %d carve %d: an entry reads %d, written by another carve", w, i, e.Peer)
				}
			}
			if c.nack.Origin != stamp || c.rep.Origin != stamp || c.data.Origin != stamp || len(c.nack.Ancestors) != i%5 {
				t.Fatalf("worker %d carve %d: NACK %d, repair %d, data %d, %d ancestors", w, i, c.nack.Origin, c.rep.Origin, c.data.Origin, len(c.nack.Ancestors))
			}
			for _, e := range c.nack.Ancestors {
				if e.ZCR != stamp {
					t.Fatalf("worker %d carve %d: an ancestor reads %d, written by another carve", w, i, e.ZCR)
				}
			}
		}
	}
}

// TestCarvedListsAreCapped: a carved list's capacity is its length, so
// an append to it reallocates rather than writing into the next carve,
// and a list longer than a block's tail gets memory of its own.
func TestCarvedListsAreCapped(t *testing.T) {
	span := func(p unsafe.Pointer, n int, size uintptr) (lo, hi uintptr) {
		lo = uintptr(p)
		return lo, lo + uintptr(n)*size
	}
	a, b := CarveAncestors(3), CarveAncestors(arenaEntries+1)
	if cap(a) != 3 || cap(b) != arenaEntries+1 || CarveAncestors(0) != nil {
		t.Fatalf("capacities %d and %d, want 3 and %d, and a nil empty list", cap(a), cap(b), arenaEntries+1)
	}
	c := append(a, AncestorRTT{ZCR: 9})
	if unsafe.SliceData(c) == unsafe.SliceData(a) {
		t.Error("an append to a carved list wrote past its end")
	}
	lo1, hi1 := span(unsafe.Pointer(unsafe.SliceData(a)), cap(a), unsafe.Sizeof(a[0]))
	lo2, hi2 := span(unsafe.Pointer(unsafe.SliceData(b)), cap(b), unsafe.Sizeof(b[0]))
	if lo1 < hi2 && lo2 < hi1 {
		t.Error("two carved lists share memory")
	}
	if s := CarveSession(0); s.Entries != nil {
		t.Errorf("a session message of no entries has %d", len(s.Entries))
	}
}
