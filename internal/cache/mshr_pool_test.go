package cache

import "testing"

// TestMSHRFreePoisonsEntry pins the pooled-entry aliasing contract: Free
// clears the transaction state and writes an impossible block and ack
// count, so a pointer retained across a Free reads no transaction, and
// a re-allocation of the same block can never alias the dead one.
func TestMSHRFreePoisonsEntry(t *testing.T) {
	m := NewMSHR(4)

	e := m.Allocate(0x40)
	stale := e
	e.IsWrite = true
	e.GrantExclusive = true
	e.InvalidatedInFlight = true
	e.GotData = true
	e.PendingAcks = 2
	e.Waiters = append(e.Waiters, Waiter{Kind: WaiterDone, Done: func() {}})
	e.Waiters = append(e.Waiters, Waiter{Kind: WaiterFinish, Addr: 0x40, Start: 7})
	waiterCap := cap(e.Waiters)

	scratch := m.Free(0x40, nil)
	if len(scratch) != 2 {
		t.Fatalf("Free returned %d waiters, want 2", len(scratch))
	}
	if scratch[0].Kind != WaiterDone || scratch[1].Kind != WaiterFinish {
		t.Fatalf("Free reordered waiters: %+v", scratch)
	}
	if stale.Block != poisonBlock || stale.PendingAcks != -1 {
		t.Fatalf("freed entry holds block %#x and %d pending acks, want the poison %#x and -1",
			stale.Block, stale.PendingAcks, poisonBlock)
	}
	if stale.IsWrite || stale.GotData || stale.GrantExclusive || stale.InvalidatedInFlight ||
		len(stale.Waiters) != 0 || len(stale.PartialWaiters) != 0 {
		t.Fatalf("freed entry retains dead-transaction state: %+v", *stale)
	}
	if m.Lookup(0x40) != nil {
		t.Fatal("freed entry still addressable")
	}

	// Re-allocating the same block must reuse the pooled entry, tracking
	// the block again with a clean transaction.
	r := m.Allocate(0x40)
	if r != e {
		t.Fatal("pool did not recycle the freed entry")
	}
	if r.Block != 0x40 {
		t.Fatalf("recycled entry tracks block %#x, want 0x40", r.Block)
	}
	if r.IsWrite || r.GotData || r.PendingAcks != 0 || len(r.Waiters) != 0 || len(r.PartialWaiters) != 0 {
		t.Fatalf("recycled entry retains dead-transaction state: %+v", r)
	}
	if cap(r.Waiters) != waiterCap {
		t.Errorf("recycled waiter backing array not retained: cap %d, want %d", cap(r.Waiters), waiterCap)
	}
}
