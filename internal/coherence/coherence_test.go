package coherence

import (
	"testing"

	"tilesim/internal/cache"
	"tilesim/internal/noc"
)

func TestColdReadGrantsExclusive(t *testing.T) {
	ts := newTestSystem(t, rig{})
	lat := ts.run(3, 0x10000, false)
	if st := ts.state(3, 0x10000); st != cache.Exclusive {
		t.Fatalf("state after cold read = %v, want E", st)
	}
	if ts.sent[noc.DataExclusive] != 1 {
		t.Fatalf("DataExclusive count %d", ts.sent[noc.DataExclusive])
	}
	// Cold read pays the 400-cycle memory fetch.
	if lat < 400 {
		t.Fatalf("cold miss latency %d < memory latency", lat)
	}
	ts.drain()
}

func TestSecondReaderDowngradesOwner(t *testing.T) {
	ts := newTestSystem(t, rig{})
	addr := uint64(0x20000)
	ts.run(1, addr, false) // tile 1 gets E
	ts.run(2, addr, false) // tile 2 reads: FwdGetS to tile 1
	if st := ts.state(1, addr); st != cache.Shared {
		t.Fatalf("old owner state %v, want S", st)
	}
	if st := ts.state(2, addr); st != cache.Shared {
		t.Fatalf("new reader state %v, want S", st)
	}
	if ts.sent[noc.FwdGetS] != 1 || ts.sent[noc.Revision] != 1 {
		t.Fatalf("fwd=%d revision=%d, want 1,1", ts.sent[noc.FwdGetS], ts.sent[noc.Revision])
	}
	ts.drain()
}

func TestReadAfterWriteForwardsDirtyData(t *testing.T) {
	ts := newTestSystem(t, rig{})
	addr := uint64(0x30000)
	ts.run(0, addr, true) // tile 0: M
	if st := ts.state(0, addr); st != cache.Modified {
		t.Fatalf("writer state %v, want M", st)
	}
	ts.run(5, addr, false)
	if ts.state(0, addr) != cache.Shared || ts.state(5, addr) != cache.Shared {
		t.Fatal("dirty forward did not leave both in S")
	}
	ts.drain()
}

func TestUpgradeInvalidatesSharers(t *testing.T) {
	ts := newTestSystem(t, rig{})
	addr := uint64(0x40000)
	for _, tile := range []int{0, 1, 2} {
		ts.run(tile, addr, false)
	}
	ts.run(1, addr, true) // S -> M via Upgrade
	if st := ts.state(1, addr); st != cache.Modified {
		t.Fatalf("upgrader state %v, want M", st)
	}
	for _, tile := range []int{0, 2} {
		if st := ts.state(tile, addr); st != cache.Invalid {
			t.Fatalf("tile %d state %v after upgrade, want I", tile, st)
		}
	}
	if ts.sent[noc.Upgrade] != 1 || ts.sent[noc.AckNoData] != 1 {
		t.Fatalf("upgrade=%d acknodata=%d", ts.sent[noc.Upgrade], ts.sent[noc.AckNoData])
	}
	if ts.sent[noc.Inv] != 2 || ts.sent[noc.InvAck] != 2 {
		t.Fatalf("inv=%d invack=%d, want 2,2", ts.sent[noc.Inv], ts.sent[noc.InvAck])
	}
	ts.drain()
}

func TestWriteAfterWriteTransfersOwnership(t *testing.T) {
	ts := newTestSystem(t, rig{})
	addr := uint64(0x50000)
	ts.run(0, addr, true)
	ts.run(7, addr, true)
	if ts.state(0, addr) != cache.Invalid {
		t.Fatal("old writer kept its copy")
	}
	if ts.state(7, addr) != cache.Modified {
		t.Fatal("new writer not M")
	}
	if ts.sent[noc.FwdGetX] != 1 {
		t.Fatalf("FwdGetX = %d, want 1", ts.sent[noc.FwdGetX])
	}
	ts.drain()
}

// l1ConflictAddrs returns n block addresses mapping to the same L1 set
// and the same home tile.
func l1ConflictAddrs(n int) []uint64 {
	// L1: 128 sets, 64B lines -> set bits are addr[6:13). Home bits are
	// addr[12:16). Stride 64 KB keeps both fixed.
	out := make([]uint64, n)
	for i := range out {
		out[i] = 0x100000 + uint64(i)*65536
	}
	return out
}

func TestL1EvictionEmitsWriteback(t *testing.T) {
	ts := newTestSystem(t, rig{})
	addrs := l1ConflictAddrs(5) // 5 blocks into a 4-way set
	for _, a := range addrs {
		ts.run(0, a, true) // all M
	}
	if ts.sent[noc.WriteBack] != 1 {
		t.Fatalf("writebacks = %d, want 1 (one conflict eviction)", ts.sent[noc.WriteBack])
	}
	if ts.sent[noc.WBAck] != 1 {
		t.Fatalf("wbacks = %d, want 1", ts.sent[noc.WBAck])
	}
	// The evicted block (LRU = first) must be gone from the L1 and
	// unowned at the directory.
	ts.drain()
	if ts.state(0, addrs[0]) != cache.Invalid {
		t.Fatal("evicted line still present")
	}
	// And re-reading it works (data now home in L2, no memory refetch).
	fetchesBefore := ts.p.homeOf(addrs[0]).MemFetches.Value()
	ts.run(0, addrs[0], false)
	if got := ts.p.homeOf(addrs[0]).MemFetches.Value(); got != fetchesBefore {
		t.Fatal("re-read of written-back block went to memory")
	}
}

func TestCleanEvictionSendsHint(t *testing.T) {
	ts := newTestSystem(t, rig{})
	addrs := l1ConflictAddrs(5)
	for _, a := range addrs {
		ts.run(0, a, false) // all E (sole reader)
	}
	if ts.sent[noc.ReplacementHint] != 1 {
		t.Fatalf("hints = %d, want 1", ts.sent[noc.ReplacementHint])
	}
	if ts.sent[noc.WriteBack] != 0 {
		t.Fatalf("clean eviction sent a data writeback")
	}
	ts.drain()
}

// l2ConflictAddrs returns n blocks mapping to the same home and the same
// L2 set. Home bits are addr[12:16); the slice folds them out, making
// the set index addr[6:12) ++ addr[16:20), so a 1 MB stride keeps both
// fixed.
func l2ConflictAddrs(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = 0x200000 + uint64(i)*(1<<20)
	}
	return out
}

func TestL2RecallMaintainsInclusion(t *testing.T) {
	ts := newTestSystem(t, rig{})
	addrs := l2ConflictAddrs(6) // 6 blocks into a 4-way L2 set
	// Tile 1 holds the first block in S (shared with tile 2 so it is not
	// an owner recall).
	ts.run(1, addrs[0], false)
	ts.run(2, addrs[0], false)
	// Fill the L2 set from other tiles until the first block is
	// recalled.
	for _, a := range addrs[1:] {
		ts.run(3, a, false)
	}
	ts.drain()
	home := ts.p.homeOf(addrs[0])
	if home.Recalls.Value() == 0 {
		t.Fatal("no recall happened; conflict geometry wrong?")
	}
	// If the first block was recalled, no L1 may still hold it.
	if home.l2.Probe(addrs[0]) == nil {
		for _, tile := range []int{1, 2} {
			if ts.state(tile, addrs[0]) != cache.Invalid {
				t.Fatalf("tile %d kept a copy of recalled block", tile)
			}
		}
	}
}

func TestL2RecallOfDirtyOwner(t *testing.T) {
	ts := newTestSystem(t, rig{})
	addrs := l2ConflictAddrs(6)
	ts.run(1, addrs[0], true) // tile 1 owns dirty
	for _, a := range addrs[1:] {
		ts.run(3, a, false)
	}
	ts.drain()
	home := ts.p.homeOf(addrs[0])
	if home.Recalls.Value() == 0 {
		t.Fatal("no recall happened")
	}
	// The dirty line's round trip: re-reading must work.
	ts.run(4, addrs[0], false)
	ts.drain()
}

// TestRecallRacingExclusiveGrantRelinquishes holds tile 1's E grant of
// a block while a fill recalls that block: tile 1 acks the recall with
// its read still in flight, so once the grant lands it must use the
// line once and give it up with a replacement hint, or it would keep an
// E copy its home's L2 no longer holds.
func TestRecallRacingExclusiveGrantRelinquishes(t *testing.T) {
	ts := newTestSystem(t, rig{})
	addrs := l2ConflictAddrs(5)
	var held []noc.Message
	ts.onSend = func(m *noc.Message) bool {
		if m.Type == noc.DataExclusive && m.Dst == 1 && m.Addr == addrs[0] {
			held = append(held, *m)
			return true
		}
		return false
	}
	done := false
	ts.p.L1(1).Load(addrs[0], func() { done = true })
	ts.runUntil(nil)
	for _, a := range addrs[1:] { // the grant's block is the set's LRU way
		ts.run(2, a, false)
	}
	if len(held) != 1 || ts.p.homeOf(addrs[0]).l2.Probe(addrs[0]) != nil {
		t.Fatalf("held %d grants, and the fill kept %#x: %v; the recall did not race the grant",
			len(held), addrs[0], ts.p.homeOf(addrs[0]).l2.Probe(addrs[0]) != nil)
	}
	ts.deliver(&held[0])
	ts.drain()
	if !done || ts.state(1, addrs[0]) != cache.Invalid || ts.sent[noc.ReplacementHint] != 1 {
		t.Fatalf("load done %v, tile 1 holds %#x in %v after %d hints; want the line used once and relinquished",
			done, addrs[0], ts.state(1, addrs[0]), ts.sent[noc.ReplacementHint])
	}
}

// TestL2FillEvictsLRUIdleWay fills one L2 set with four blocks no L1
// holds, touches way 0 last, and has a fifth block miss into the set:
// the fill must evict the least-recently-used way, not the first idle
// one.
func TestL2FillEvictsLRUIdleWay(t *testing.T) {
	ts := newTestSystem(t, rig{})
	addrs := l2ConflictAddrs(5)
	l2 := ts.p.homeOf(addrs[0]).l2
	for _, a := range addrs[:4] {
		l2.Insert(a, cache.Shared) // ways 0..3
	}
	l2.Access(addrs[0])
	ts.run(3, addrs[4], false)
	ts.drain()
	if l2.Probe(addrs[0]) == nil || l2.Probe(addrs[1]) != nil {
		t.Fatalf("the fill kept %#x: %v, and %#x: %v; want the LRU way %#x evicted",
			addrs[0], l2.Probe(addrs[0]) != nil, addrs[1], l2.Probe(addrs[1]) != nil, addrs[1])
	}
}

func TestMissLatencyRecorded(t *testing.T) {
	ts := newTestSystem(t, rig{})
	ts.run(0, 0x70000, false)
	l1 := ts.p.L1(0)
	if l1.MissLatency.N() != 1 || l1.MissLatency.Value() < 400 {
		t.Fatalf("miss latency stats: n=%d mean=%.0f", l1.MissLatency.N(), l1.MissLatency.Value())
	}
	if l1.Loads.Value() != 1 || l1.LoadMisses.Value() != 1 {
		t.Fatal("load counters wrong")
	}
}

func TestHomeOfDistributesBlocks(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		seen[HomeOf(uint64(i*4096), 16)] = true
	}
	if len(seen) != 16 {
		t.Fatalf("16 consecutive pages map to %d homes, want 16", len(seen))
	}
	if HomeOf(0x1000, 16) != 1 {
		t.Fatalf("HomeOf(0x1000) = %d, want 1", HomeOf(0x1000, 16))
	}
	// All blocks of one page share a home (required for 1B-LO
	// compression regions to stay destination-stable).
	for i := 0; i < 64; i++ {
		if HomeOf(uint64(0x3000+i*64), 16) != 3 {
			t.Fatalf("block %d of page 3 homed at %d", i, HomeOf(uint64(0x3000+i*64), 16))
		}
	}
}

// TestSameBlockWriteStorm has every tile write the same block
// concurrently: the fiercest serialization test.
func TestSameBlockWriteStorm(t *testing.T) {
	ts := newTestSystem(t, rig{delay: randomDelay(99, 25, 0)})
	addr := uint64(0x400000)
	done := 0
	for tile := 0; tile < 16; tile++ {
		ts.p.L1(tile).Store(addr, func() { done++ })
	}
	ts.drain()
	if done != 16 {
		t.Fatalf("%d/16 writes completed", done)
	}
	// Exactly one tile must own the block in M.
	owners := 0
	for tile := 0; tile < 16; tile++ {
		if st := ts.state(tile, addr); st == cache.Modified {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d owners after write storm, want 1", owners)
	}
}

// TestReadWriteInterleaveOnHotBlock mixes readers and writers on one
// block with random delays.
func TestReadWriteInterleaveOnHotBlock(t *testing.T) {
	ts := newTestSystem(t, rig{delay: randomDelay(123, 30, 0)})
	addr := uint64(0x500000)
	done := 0
	for tile := 0; tile < 16; tile++ {
		tile := tile
		if tile%2 == 0 {
			ts.p.L1(tile).Load(addr, func() {
				done++
				ts.p.L1(tile).Store(addr, func() { done++ })
			})
		} else {
			ts.p.L1(tile).Store(addr, func() {
				done++
				ts.p.L1(tile).Load(addr, func() { done++ })
			})
		}
	}
	ts.drain()
	if done != 32 {
		t.Fatalf("%d/32 ops completed", done)
	}
}

func TestLocalHomeAccess(t *testing.T) {
	// Block homed at the requesting tile: the transport still delivers
	// (the cmp layer shortcuts it physically, but the protocol is
	// transport-agnostic).
	ts := newTestSystem(t, rig{})
	addr := uint64(0x600000) // home 0
	if HomeOf(addr, 16) != 0 {
		t.Fatal("test address not homed at 0")
	}
	ts.run(0, addr, true)
	if ts.state(0, addr) != cache.Modified {
		t.Fatal("local write failed")
	}
	ts.drain()
}
