package coherence

import (
	"testing"
	"unsafe"

	"tilesim/internal/noc"
)

// TestHomeBurstDrainsInArrivalOrder sends a burst of requests for one
// hot block to its home and checks that the home serves them in arrival
// order. The burst covers two replay shapes of finishTxn:
//
//   - a replayed request that makes the block busy again, so the rest
//     of the replay re-queues on the same block (twice: tile 9's GetX
//     and tile 10's forwarded GetS);
//   - a nested finishTxn. While tile 10's GetS replays, the transport
//     delivers the held acks of an L2 inclusion recall. That finishes
//     the pending fill and the recalled victim, and both drain their own
//     queues inside the outer replay.
func TestHomeBurstDrainsInArrivalOrder(t *testing.T) {
	addrs := l2ConflictAddrs(5) // a0..a3 fill one L2 set; a4 misses into it
	fillBlock := addrs[4]
	hotBlock := uint64(0x200040) // same home, another L2 set
	const homeID = 0
	if HomeOf(fillBlock, 16) != homeID || HomeOf(hotBlock, 16) != homeID {
		t.Fatal("test blocks not homed together")
	}

	ts := newTestSystem(t, rig{})
	var (
		holding bool
		victim  uint64
		held    []noc.Message
		order   []int // hotBlock requestors, in the order the home serves them
		nested  bool
		waiting bool // a check ran while requests waited in the home's queue
	)
	ts.onSend = func(m *noc.Message) bool {
		block := m.Addr &^ uint64(noc.LineBytes-1)
		if m.Src == homeID && block == hotBlock {
			switch m.Type {
			case noc.Data, noc.DataExclusive, noc.AckNoData:
				order = append(order, m.Dst)
			case noc.FwdGetS, noc.FwdGetX:
				order = append(order, m.ReplyTo)
			}
		}
		if holding {
			if m.Type == noc.Inv && m.Recall && victim == 0 {
				victim = block
			}
			if (m.Type == noc.InvAck || m.Type == noc.Revision) && m.Dst == homeID && block == victim {
				held = append(held, *m)
				return true
			}
		}
		if m.Type == noc.FwdGetS && block == hotBlock && m.ReplyTo == 10 && len(held) > 0 {
			nested = true
			for i := range held {
				ts.deliver(&held[i])
			}
			held = nil
		}
		return false
	}
	home := ts.p.homes[homeID]

	// a0 shared by tiles 1 and 2, a1..a3 exclusive at tile 3, the hot
	// block modified at tile 7.
	ts.run(1, addrs[0], false)
	ts.run(2, addrs[0], false)
	for _, a := range addrs[1:4] {
		ts.run(3, a, false)
	}
	ts.run(7, hotBlock, true)
	order = nil

	done := map[int]bool{}
	load := func(tile int, addr uint64) { ts.p.L1(tile).Load(addr, func() { done[tile] = true }) }
	store := func(tile int, addr uint64) { ts.p.L1(tile).Store(addr, func() { done[tile] = true }) }

	// Tile 4 misses on a4; tiles 5 and 6 queue behind its fill. The fill
	// recalls a victim from the full set; hold the recall's acks.
	holding = true
	queued0 := home.QueuedAtHome.Value()
	for tile := 4; tile <= 6; tile++ {
		load(tile, fillBlock)
	}
	ts.runUntil(func() bool {
		e, _ := home.lookup(victim)
		return victim != 0 && e != nil && len(held) > 0 && len(held) == int(e.recallAcks)
	})
	if len(held) == 0 {
		t.Fatal("the fill recalled no victim; conflict geometry wrong?")
	}
	holding = false

	// Tile 0 queues on the victim. Then the burst: tile 8 reads the hot
	// block (forwarded to owner 7), tile 9 writes it, tiles 10..15 read.
	load(0, victim)
	load(8, hotBlock)
	store(9, hotBlock)
	for tile := 10; tile <= 15; tile++ {
		load(tile, hotBlock)
	}
	ts.runUntil(func() bool {
		waiting = waiting || len(home.queue) > 0
		return false
	})
	ts.drain()

	for _, tile := range []int{0, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15} {
		if !done[tile] {
			t.Errorf("tile %d's access never completed", tile)
		}
	}
	if !nested {
		t.Fatal("the recall never finished inside a replay; the nested path went untested")
	}
	if !waiting {
		t.Fatal("no check ran while requests waited; the queue walk ran only on an empty queue")
	}
	want := []int{8, 9, 10, 11, 12, 13, 14, 15}
	if len(order) != len(want) {
		t.Fatalf("hot block served %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("hot block served %v, want arrival order %v", order, want)
		}
	}
	// Queued at the home: hot block 7 + 6 + 5 (tiles 9..15, then 10..15
	// behind tile 9's grant, then 11..15 behind tile 10's forward); fill
	// block 2 + 1 (tiles 5 and 6, then 6 behind tile 5's forward); the
	// victim 1 (tile 0).
	if got := home.QueuedAtHome.Value() - queued0; got != 22 {
		t.Errorf("home queued %d requests, want 22", got)
	}
	if len(home.drain) != 0 {
		t.Errorf("drain buffer holds %d requests after the burst", len(home.drain))
	}
	if len(home.queue) != 0 {
		t.Errorf("home queue holds %d requests after the burst", len(home.queue))
	}
}

// TestHomeQueueStorageIsReused checks that once a burst has sized them,
// the home's request queue and drain buffer serve an identical second
// burst without new storage: waiting requests live in the home, not in
// their block's directory entry.
func TestHomeQueueStorageIsReused(t *testing.T) {
	ts := newTestSystem(t, rig{})
	block := uint64(0x800000)
	home := ts.p.homeOf(block)
	burst := func() uint64 {
		before := home.QueuedAtHome.Value()
		done := 0
		for tile := 1; tile < 16; tile++ {
			ts.p.L1(tile).Store(block, func() { done++ })
		}
		ts.runUntil(nil)
		if done != 15 {
			t.Fatalf("%d of 15 stores completed", done)
		}
		// Tile 0 takes the block, so the next burst's 15 stores all miss.
		ts.run(0, block, true)
		return home.QueuedAtHome.Value() - before
	}

	warm := burst()
	if cap(home.queue) == 0 || cap(home.drain) == 0 {
		t.Fatal("the warm-up burst queued nothing at the home")
	}
	queue, queueCap := unsafe.SliceData(home.queue), cap(home.queue)
	drain, drainCap := unsafe.SliceData(home.drain), cap(home.drain)

	if again := burst(); again != warm {
		t.Fatalf("second burst queued %d requests, the first %d", again, warm)
	}
	if len(home.queue) != 0 {
		t.Errorf("home queue holds %d requests after the burst", len(home.queue))
	}
	if unsafe.SliceData(home.queue) != queue || cap(home.queue) != queueCap {
		t.Errorf("home queue reallocated: cap %d -> %d", queueCap, cap(home.queue))
	}
	if unsafe.SliceData(home.drain) != drain || cap(home.drain) != drainCap {
		t.Errorf("drain buffer reallocated: cap %d -> %d", drainCap, cap(home.drain))
	}
}
