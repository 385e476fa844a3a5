package coherence

import (
	"tilesim/internal/noc"
	"tilesim/internal/sim"

	"testing"
)

// newTestSystemMSHRs is newTestSystem with a custom MSHR register count,
// so tests can saturate the file without driving thousands of misses.
func newTestSystemMSHRs(mshrs int, delay func(*noc.Message) sim.Time) *testSystem {
	ts := &testSystem{k: sim.NewKernel(), sent: map[noc.Type]int{}}
	if delay == nil {
		delay = func(*noc.Message) sim.Time { return 1 }
	}
	ts.delay = delay
	cfg := DefaultConfig()
	cfg.MSHRs = mshrs
	ts.p = New(ts.k, cfg, func(m noc.Message) {
		m.SizeBytes = m.UncompressedSize()
		ts.sent[m.Type]++
		ts.k.Schedule(ts.delay(&m), func() { ts.p.Deliver(&m) })
	})
	return ts
}

// TestSameBlockWaitersResumeFIFO pins the MSHR waiter discipline: accesses
// that arrive while a transaction is live on their block queue on the
// entry and must resume in arrival order when it completes.
func TestSameBlockWaitersResumeFIFO(t *testing.T) {
	ts := newTestSystem(nil)
	addr := uint64(0x30000)
	var order []int
	done := 0
	ts.p.L1(0).Store(addr, func() { order = append(order, 0); done++ })
	for i := 1; i <= 3; i++ {
		ts.p.L1(0).Load(addr, func() { order = append(order, i); done++ })
	}
	ts.k.Run(func() bool { return done == 4 })
	if done != 4 {
		t.Fatalf("only %d of 4 same-block accesses completed", done)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("waiters resumed out of order: %v", order)
		}
	}
	ts.drain(t)
	ts.checkInvariants(t, []uint64{addr})
}

// TestWritebackBurstRetriesWithoutStarvation drives the startMiss
// register-full retry path (l1.go): a writeback burst pins every MSHR
// register for thousands of cycles, demand misses issued meanwhile must
// spin on the 4-cycle retry without allocating, and every one of them —
// including a same-block pair that exercises the retry-finds-entry
// waiter handoff — must complete once registers free, in FIFO order for
// the same-block pair.
func TestWritebackBurstRetriesWithoutStarvation(t *testing.T) {
	const wbAckDelay = 4000
	slowWBAck := false
	ts := newTestSystemMSHRs(2, func(m *noc.Message) sim.Time {
		if slowWBAck && m.Type == noc.WBAck {
			return wbAckDelay
		}
		return 1
	})
	l1 := ts.p.L1(0)
	addrs := l1ConflictAddrs(8) // one 4-way L1 set, one home

	// Fill the set with dirty lines while writebacks still ack fast.
	for _, a := range addrs[:4] {
		ts.run(t, 0, a, true)
	}
	slowWBAck = true

	var order []int
	done := 0
	store := func(idx int, addr uint64) {
		l1.Store(addr, func() { order = append(order, idx); done++ })
	}

	// Two more stores miss, fill, and each evicts a dirty line, opening
	// a writeback-buffer entry that the delayed WBAck keeps live: both
	// registers end up busy with writebacks.
	store(0, addrs[4])
	store(1, addrs[5])
	ts.k.Run(func() bool { return done == 2 })
	if done != 2 {
		t.Fatalf("filling stores stalled: %d of 2 done", done)
	}
	if !l1.mshr.Full() {
		t.Fatalf("MSHR not full after writeback burst: %d entries", l1.mshr.Len())
	}
	if ts.sent[noc.WriteBack] != 2 {
		t.Fatalf("writebacks = %d, want 2", ts.sent[noc.WriteBack])
	}

	// Three demand misses against a full register file. The same-block
	// pair (indexes 2 and 3) additionally covers the retry that finds an
	// entry allocated by an earlier retry and queues behind it.
	start := ts.k.Now()
	store(2, addrs[6])
	store(3, addrs[6])
	store(4, addrs[7])

	// Halfway through the writeback's lifetime nothing may have slipped
	// through: the misses are spinning on the retry path, not allocating
	// over capacity.
	ts.k.RunUntil(start + wbAckDelay/2)
	if done != 2 {
		t.Fatalf("%d misses completed while every register was busy", done-2)
	}

	ts.k.Run(func() bool { return done == 5 })
	if done != 5 {
		t.Fatalf("starvation: %d of 5 accesses completed (order %v)", done, order)
	}
	if ts.k.Now() < start+wbAckDelay {
		t.Fatalf("misses completed at %d, before the registers could free at %d",
			ts.k.Now(), start+wbAckDelay)
	}
	pos := make(map[int]int, len(order))
	for i, idx := range order {
		pos[idx] = i
	}
	if pos[2] > pos[3] {
		t.Fatalf("same-block requests resumed out of FIFO order: %v", order)
	}
	// The two fresh fills evicted two more dirty lines.
	if ts.sent[noc.WriteBack] != 4 {
		t.Fatalf("writebacks = %d, want 4", ts.sent[noc.WriteBack])
	}

	ts.drain(t)
	ts.checkInvariants(t, addrs)
}
