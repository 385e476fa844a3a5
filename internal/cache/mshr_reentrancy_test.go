package cache

import "testing"

// TestMSHRFreeDuringDrainReentrancy pins the reason Free returns its
// waiters instead of running them: by the time the caller drains the
// returned slice, the entry is already unlinked from the live slice and
// poisoned. A waiter that re-enters the MSHR mid-drain — allocating the
// *same block* and freeing it again, the shape of a retry that
// immediately coalesces — must therefore see a clean recycled entry,
// never the dead transaction it is itself a continuation of.
func TestMSHRFreeDuringDrainReentrancy(t *testing.T) {
	m := NewMSHR(2)
	const block = 0x40

	e := m.Allocate(block)
	e.GotData = true
	e.PendingAcks = 0

	reentered := false
	secondRan := false
	e.Waiters = append(e.Waiters, Waiter{Kind: WaiterDone, Done: func() {
		if m.Lookup(block) != nil {
			t.Fatal("freed entry still addressable from a drain waiter")
		}
		if e.Block != poisonBlock {
			t.Fatalf("a drain waiter runs while its entry still holds block %#x", e.Block)
		}
		r := m.Allocate(block)
		if r != e {
			t.Fatal("reentrant Allocate did not recycle the freed entry")
		}
		if r.GotData || r.PendingAcks != 0 || len(r.Waiters) != 0 {
			t.Fatalf("reentrant Allocate sees dead-transaction state: %+v", r)
		}
		r.Waiters = append(r.Waiters, Waiter{Kind: WaiterFinish, Addr: block, Start: 9})
		inner := m.Free(block, nil)
		if len(inner) != 1 || inner[0].Kind != WaiterFinish || inner[0].Start != 9 {
			t.Fatalf("reentrant Free drained %+v, want the one WaiterFinish", inner)
		}
		reentered = true
	}})
	e.Waiters = append(e.Waiters, Waiter{Kind: WaiterDone, Done: func() {
		// The outer drain must survive the nested Allocate/Free cycle:
		// its scratch slice was handed over by Free, not shared with
		// the entry's (now recycled and re-truncated) Waiters backing.
		secondRan = true
	}})

	scratch := m.Free(block, nil)
	if len(scratch) != 2 {
		t.Fatalf("Free returned %d waiters, want 2", len(scratch))
	}
	for i := range scratch {
		if scratch[i].Kind == WaiterDone && scratch[i].Done != nil {
			scratch[i].Done()
		}
	}

	if !reentered {
		t.Fatal("reentrant waiter never ran")
	}
	if !secondRan {
		t.Fatal("waiter parked after the reentrant one was lost")
	}
	if m.Len() != 0 {
		t.Fatalf("%d entries live after the reentrant cycle", m.Len())
	}
	final := m.Allocate(block)
	if final != e {
		t.Fatal("pool lost the entry across the reentrant cycle")
	}
}
