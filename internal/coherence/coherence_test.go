package coherence

import (
	"math/rand"
	"testing"

	"tilesim/internal/cache"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
)

// testSystem wires the protocol to a loopback transport with a fixed or
// randomized per-message delay, recording all traffic.
type testSystem struct {
	k *sim.Kernel
	p *Protocol
	// sent counts messages by type.
	sent map[noc.Type]int
	// delay returns the transport delay for a message.
	delay func(*noc.Message) sim.Time
}

func newTestSystem(delay func(*noc.Message) sim.Time) *testSystem {
	ts := &testSystem{k: sim.NewKernel(), sent: map[noc.Type]int{}}
	if delay == nil {
		delay = func(*noc.Message) sim.Time { return 1 }
	}
	ts.delay = delay
	ts.p = New(ts.k, DefaultConfig(), func(m noc.Message) {
		m.SizeBytes = m.UncompressedSize()
		ts.sent[m.Type]++
		ts.k.Schedule(ts.delay(&m), func() { ts.p.Deliver(&m) })
	})
	return ts
}

// run drives one access to completion and returns its latency.
func (ts *testSystem) run(t *testing.T, tile int, addr uint64, write bool) sim.Time {
	t.Helper()
	start := ts.k.Now()
	done := false
	if write {
		ts.p.L1(tile).Store(addr, func() { done = true })
	} else {
		ts.p.L1(tile).Load(addr, func() { done = true })
	}
	ts.k.Run(func() bool { return done })
	if !done {
		t.Fatalf("access tile=%d addr=%#x write=%v never completed", tile, addr, write)
	}
	end := ts.k.Now()
	// Drain trailing protocol activity (revisions, acks) so invariants
	// hold when inspected.
	ts.k.Run(nil)
	return end - start
}

func (ts *testSystem) drain(t *testing.T) {
	t.Helper()
	ts.k.Run(nil)
	if n := ts.p.OutstandingTransactions(); n != 0 {
		t.Fatalf("%d transactions outstanding after drain", n)
	}
}

func (ts *testSystem) state(tile int, addr uint64) cache.State {
	line := ts.p.L1(tile).Cache().Probe(addr)
	if line == nil {
		return cache.Invalid
	}
	return line.State()
}

// checkInvariants verifies the single-writer/multi-reader property and
// directory consistency for the given blocks.
func (ts *testSystem) checkInvariants(t *testing.T, blocks []uint64) {
	t.Helper()
	tiles := ts.p.Config().Tiles
	for _, b := range blocks {
		owners, sharers := 0, 0
		ownerTile := -1
		for tile := 0; tile < tiles; tile++ {
			switch ts.state(tile, b) {
			case cache.Modified, cache.Exclusive:
				owners++
				ownerTile = tile
			case cache.Shared:
				sharers++
			}
		}
		if owners > 1 {
			t.Errorf("block %#x has %d owners", b, owners)
		}
		if owners == 1 && sharers > 0 {
			t.Errorf("block %#x has an owner at %d and %d sharers", b, ownerTile, sharers)
		}
		home := ts.p.Home(HomeOf(b, tiles))
		dirSharers, dirOwner, busy, tracked := home.DirInfo(b)
		if busy {
			t.Errorf("block %#x still busy at home", b)
		}
		if owners == 1 {
			if !tracked || dirOwner != ownerTile {
				t.Errorf("block %#x owned by %d but directory says %d (tracked=%v)", b, ownerTile, dirOwner, tracked)
			}
		} else if dirOwner >= 0 {
			// Directory owner with no actual M/E copy is a leak.
			t.Errorf("block %#x: directory owner %d but no L1 owns it", b, dirOwner)
		}
		// Directory sharers must be a superset of actual S holders.
		for tile := 0; tile < tiles; tile++ {
			if ts.state(tile, b) == cache.Shared && !dirSharers.Has(tile) {
				t.Errorf("block %#x: tile %d holds S but directory mask %v misses it", b, tile, dirSharers)
			}
		}
		// Inclusion: any L1 presence requires the home L2 line.
		if (owners > 0 || sharers > 0) && home.L2().Probe(b) == nil {
			t.Errorf("block %#x in L1s but not in home L2 (inclusion broken)", b)
		}
	}
}

func TestColdReadGrantsExclusive(t *testing.T) {
	ts := newTestSystem(nil)
	lat := ts.run(t, 3, 0x10000, false)
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
	ts.drain(t)
	ts.checkInvariants(t, []uint64{0x10000})
}

func TestSecondReaderDowngradesOwner(t *testing.T) {
	ts := newTestSystem(nil)
	addr := uint64(0x20000)
	ts.run(t, 1, addr, false) // tile 1 gets E
	ts.run(t, 2, addr, false) // tile 2 reads: FwdGetS to tile 1
	if st := ts.state(1, addr); st != cache.Shared {
		t.Fatalf("old owner state %v, want S", st)
	}
	if st := ts.state(2, addr); st != cache.Shared {
		t.Fatalf("new reader state %v, want S", st)
	}
	if ts.sent[noc.FwdGetS] != 1 || ts.sent[noc.Revision] != 1 {
		t.Fatalf("fwd=%d revision=%d, want 1,1", ts.sent[noc.FwdGetS], ts.sent[noc.Revision])
	}
	ts.drain(t)
	ts.checkInvariants(t, []uint64{addr})
}

func TestReadAfterWriteForwardsDirtyData(t *testing.T) {
	ts := newTestSystem(nil)
	addr := uint64(0x30000)
	ts.run(t, 0, addr, true) // tile 0: M
	if st := ts.state(0, addr); st != cache.Modified {
		t.Fatalf("writer state %v, want M", st)
	}
	ts.run(t, 5, addr, false)
	if ts.state(0, addr) != cache.Shared || ts.state(5, addr) != cache.Shared {
		t.Fatal("dirty forward did not leave both in S")
	}
	ts.drain(t)
	ts.checkInvariants(t, []uint64{addr})
}

func TestUpgradeInvalidatesSharers(t *testing.T) {
	ts := newTestSystem(nil)
	addr := uint64(0x40000)
	for _, tile := range []int{0, 1, 2} {
		ts.run(t, tile, addr, false)
	}
	ts.run(t, 1, addr, true) // S -> M via Upgrade
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
	ts.drain(t)
	ts.checkInvariants(t, []uint64{addr})
}

func TestWriteAfterWriteTransfersOwnership(t *testing.T) {
	ts := newTestSystem(nil)
	addr := uint64(0x50000)
	ts.run(t, 0, addr, true)
	ts.run(t, 7, addr, true)
	if ts.state(0, addr) != cache.Invalid {
		t.Fatal("old writer kept its copy")
	}
	if ts.state(7, addr) != cache.Modified {
		t.Fatal("new writer not M")
	}
	if ts.sent[noc.FwdGetX] != 1 {
		t.Fatalf("FwdGetX = %d, want 1", ts.sent[noc.FwdGetX])
	}
	ts.drain(t)
	ts.checkInvariants(t, []uint64{addr})
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
	ts := newTestSystem(nil)
	addrs := l1ConflictAddrs(5) // 5 blocks into a 4-way set
	for _, a := range addrs {
		ts.run(t, 0, a, true) // all M
	}
	if ts.sent[noc.WriteBack] != 1 {
		t.Fatalf("writebacks = %d, want 1 (one conflict eviction)", ts.sent[noc.WriteBack])
	}
	if ts.sent[noc.WBAck] != 1 {
		t.Fatalf("wbacks = %d, want 1", ts.sent[noc.WBAck])
	}
	// The evicted block (LRU = first) must be gone from the L1 and
	// unowned at the directory.
	ts.drain(t)
	if ts.state(0, addrs[0]) != cache.Invalid {
		t.Fatal("evicted line still present")
	}
	ts.checkInvariants(t, addrs)
	// And re-reading it works (data now home in L2, no memory refetch).
	fetchesBefore := ts.p.Home(HomeOf(addrs[0], 16)).MemFetches.Value()
	ts.run(t, 0, addrs[0], false)
	if got := ts.p.Home(HomeOf(addrs[0], 16)).MemFetches.Value(); got != fetchesBefore {
		t.Fatal("re-read of written-back block went to memory")
	}
}

func TestCleanEvictionSendsHint(t *testing.T) {
	ts := newTestSystem(nil)
	addrs := l1ConflictAddrs(5)
	for _, a := range addrs {
		ts.run(t, 0, a, false) // all E (sole reader)
	}
	if ts.sent[noc.ReplacementHint] != 1 {
		t.Fatalf("hints = %d, want 1", ts.sent[noc.ReplacementHint])
	}
	if ts.sent[noc.WriteBack] != 0 {
		t.Fatalf("clean eviction sent a data writeback")
	}
	ts.drain(t)
	ts.checkInvariants(t, addrs)
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
	ts := newTestSystem(nil)
	addrs := l2ConflictAddrs(6) // 6 blocks into a 4-way L2 set
	// Tile 1 holds the first block in S (shared with tile 2 so it is not
	// an owner recall).
	ts.run(t, 1, addrs[0], false)
	ts.run(t, 2, addrs[0], false)
	// Fill the L2 set from other tiles until the first block is
	// recalled.
	for _, a := range addrs[1:] {
		ts.run(t, 3, a, false)
	}
	ts.drain(t)
	home := ts.p.Home(HomeOf(addrs[0], 16))
	if home.Recalls.Value() == 0 {
		t.Fatal("no recall happened; conflict geometry wrong?")
	}
	// If the first block was recalled, no L1 may still hold it.
	if home.L2().Probe(addrs[0]) == nil {
		for _, tile := range []int{1, 2} {
			if ts.state(tile, addrs[0]) != cache.Invalid {
				t.Fatalf("tile %d kept a copy of recalled block", tile)
			}
		}
	}
	ts.checkInvariants(t, addrs)
}

func TestL2RecallOfDirtyOwner(t *testing.T) {
	ts := newTestSystem(nil)
	addrs := l2ConflictAddrs(6)
	ts.run(t, 1, addrs[0], true) // tile 1 owns dirty
	for _, a := range addrs[1:] {
		ts.run(t, 3, a, false)
	}
	ts.drain(t)
	home := ts.p.Home(HomeOf(addrs[0], 16))
	if home.Recalls.Value() == 0 {
		t.Fatal("no recall happened")
	}
	ts.checkInvariants(t, addrs)
	// The dirty line's round trip: re-reading must work.
	ts.run(t, 4, addrs[0], false)
	ts.drain(t)
	ts.checkInvariants(t, addrs)
}

func TestMissLatencyRecorded(t *testing.T) {
	ts := newTestSystem(nil)
	ts.run(t, 0, 0x70000, false)
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

// TestRandomizedStress runs a random access mix from all tiles with
// randomized message delays (an aggressive race generator), then checks
// every invariant at quiescence.
func TestRandomizedStress(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		delayRng := rand.New(rand.NewSource(seed * 77))
		ts := newTestSystem(func(*noc.Message) sim.Time {
			return sim.Time(1 + delayRng.Intn(40))
		})
		// Small block pool to force heavy conflicts.
		blocks := make([]uint64, 24)
		for i := range blocks {
			blocks[i] = uint64(0x300000 + i*64)
		}
		// Each tile runs a chain of random accesses.
		const opsPerTile = 60
		doneCount := 0
		var launch func(tile, remaining int)
		launch = func(tile, remaining int) {
			if remaining == 0 {
				doneCount++
				return
			}
			addr := blocks[rng.Intn(len(blocks))]
			write := rng.Intn(3) == 0
			cont := func() { launch(tile, remaining-1) }
			if write {
				ts.p.L1(tile).Store(addr, cont)
			} else {
				ts.p.L1(tile).Load(addr, cont)
			}
		}
		for tile := 0; tile < 16; tile++ {
			launch(tile, opsPerTile)
		}
		ts.k.Run(nil)
		if doneCount != 16 {
			t.Fatalf("seed %d: only %d/16 tiles finished", seed, doneCount)
		}
		ts.drain(t)
		ts.checkInvariants(t, blocks)
	}
}

// TestSameBlockWriteStorm has every tile write the same block
// concurrently: the fiercest serialization test.
func TestSameBlockWriteStorm(t *testing.T) {
	delayRng := rand.New(rand.NewSource(99))
	ts := newTestSystem(func(*noc.Message) sim.Time {
		return sim.Time(1 + delayRng.Intn(25))
	})
	addr := uint64(0x400000)
	done := 0
	for tile := 0; tile < 16; tile++ {
		ts.p.L1(tile).Store(addr, func() { done++ })
	}
	ts.k.Run(nil)
	if done != 16 {
		t.Fatalf("%d/16 writes completed", done)
	}
	ts.drain(t)
	ts.checkInvariants(t, []uint64{addr})
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
	delayRng := rand.New(rand.NewSource(123))
	ts := newTestSystem(func(*noc.Message) sim.Time {
		return sim.Time(1 + delayRng.Intn(30))
	})
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
	ts.k.Run(nil)
	if done != 32 {
		t.Fatalf("%d/32 ops completed", done)
	}
	ts.drain(t)
	ts.checkInvariants(t, []uint64{addr})
}

func TestLocalHomeAccess(t *testing.T) {
	// Block homed at the requesting tile: the transport still delivers
	// (the cmp layer shortcuts it physically, but the protocol is
	// transport-agnostic).
	ts := newTestSystem(nil)
	addr := uint64(0x600000) // home 0
	if HomeOf(addr, 16) != 0 {
		t.Fatal("test address not homed at 0")
	}
	ts.run(t, 0, addr, true)
	if ts.state(0, addr) != cache.Modified {
		t.Fatal("local write failed")
	}
	ts.drain(t)
	ts.checkInvariants(t, []uint64{addr})
}

// TestBusyCountMatchesWalk cross-checks the incrementally maintained
// busy-entry count (setBusy/busyCount) against a directory walk over
// every block the workload touches, after every kernel event of a
// conflict-heavy random workload, then again after the drain. A drift
// here means some transaction path flips dirEntry.busy without going
// through setBusy.
func TestBusyCountMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	delayRng := rand.New(rand.NewSource(42 * 77))
	ts := newTestSystem(func(*noc.Message) sim.Time {
		return sim.Time(1 + delayRng.Intn(40))
	})
	blocks := make([]uint64, 8)
	for i := range blocks {
		blocks[i] = uint64(0x700000 + i*64)
	}
	check := func() {
		for _, h := range ts.p.homes {
			walked := 0
			for _, b := range blocks {
				if e, _ := h.lookup(b); e != nil && e.busy {
					walked++
				}
			}
			if got := h.busyCount(); got != walked {
				t.Fatalf("home %d: busyCount() = %d, directory walk = %d", h.id, got, walked)
			}
		}
	}
	const opsPerTile = 25
	doneCount := 0
	var launch func(tile, remaining int)
	launch = func(tile, remaining int) {
		if remaining == 0 {
			doneCount++
			return
		}
		addr := blocks[rng.Intn(len(blocks))]
		cont := func() { launch(tile, remaining-1) }
		if rng.Intn(3) == 0 {
			ts.p.L1(tile).Store(addr, cont)
		} else {
			ts.p.L1(tile).Load(addr, cont)
		}
	}
	for tile := 0; tile < 16; tile++ {
		launch(tile, opsPerTile)
	}
	// The stop predicate runs between events: verify the counter after
	// every step of the simulation, not just at quiescence.
	ts.k.Run(func() bool {
		check()
		return false
	})
	if doneCount != 16 {
		t.Fatalf("only %d/16 tiles finished", doneCount)
	}
	ts.drain(t)
	check()
	if n := ts.p.OutstandingTransactions(); n != 0 {
		t.Fatalf("%d transactions outstanding after drain", n)
	}
}
