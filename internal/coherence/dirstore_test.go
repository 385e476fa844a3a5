package coherence

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tilesim/internal/cache"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
)

// checkDirStorage verifies where home h names its directory entries,
// given every block the run can have touched (each once): every entry
// in use, that is every entry not on the freelist, is named exactly
// once, by its block's L2 line when the block is in L2 and by the side
// list otherwise, and no L2 line names another block's entry.
func checkDirStorage(t *testing.T, h *HomeController, blocks []uint64) {
	t.Helper()
	total := uint32(len(h.chunks) * entryChunk)
	free := make(map[uint32]bool)
	for ref := h.free; ref != 0; ref = h.at(ref).next {
		if ref > total || free[ref] {
			t.Fatalf("home %d: freelist reaches entry %d twice or out of range (%d entries)", h.id, ref, total)
		}
		free[ref] = true
	}
	named := make(map[uint32]int)
	for _, b := range blocks {
		if HomeOf(b, h.p.cfg.Tiles) != h.id {
			continue
		}
		line := h.l2.Probe(b)
		if line == nil || line.Aux == 0 {
			continue
		}
		named[line.Aux]++
		if free[line.Aux] {
			t.Fatalf("home %d: the L2 line of %#x names free entry %d", h.id, b, line.Aux)
		}
		if e := h.at(line.Aux); e.block != b {
			t.Fatalf("home %d: the L2 line of %#x names entry %d, which tracks %#x", h.id, b, line.Aux, e.block)
		}
	}
	for _, ref := range h.side {
		named[ref]++
		if free[ref] {
			t.Fatalf("home %d: the side list names free entry %d", h.id, ref)
		}
		if e := h.at(ref); h.l2.Probe(e.block) != nil {
			t.Fatalf("home %d: the side list names entry %d of %#x, which has an L2 line", h.id, ref, e.block)
		}
	}
	for ref := uint32(1); ref <= total; ref++ {
		if !free[ref] && named[ref] != 1 {
			t.Fatalf("home %d: entry %d (block %#x) is named %d times, want once", h.id, ref, h.at(ref).block, named[ref])
		}
	}
}

// checkHomeQueue walks home h's directory against its request queue:
// the tracked entries' queued counts sum to the queue's length, every
// queued request's block has a busy entry, and no entry on the freelist
// counts a queued request.
func checkHomeQueue(t *testing.T, h *HomeController) {
	t.Helper()
	free := make(map[uint32]bool)
	for ref := h.free; ref != 0; ref = h.at(ref).next {
		free[ref] = true
	}
	queued := 0
	for ref := uint32(1); ref <= uint32(len(h.chunks)*entryChunk); ref++ {
		e := h.at(ref)
		if free[ref] {
			if e.queued != 0 {
				t.Fatalf("home %d: free entry %d counts %d queued requests", h.id, ref, e.queued)
			}
			continue
		}
		queued += e.queued
	}
	if queued != len(h.queue) {
		t.Fatalf("home %d: entries count %d queued requests, the queue holds %d", h.id, queued, len(h.queue))
	}
	for _, r := range h.queue {
		if e, _ := h.lookup(r.block); e == nil || !e.busy {
			t.Fatalf("home %d: a request from tile %d waits on %#x, which has no busy entry", h.id, r.src, r.block)
		}
	}
}

// TestDirEntriesNamedOnce runs a random workload built to move
// directory entries every way they can move, and checks the directory's
// storage after every kernel event and again after the drain. Shared
// blocks overflow one L2 set at each of two homes, so fills, inclusion
// recalls and plain evictions move entries between lines and the side
// list. Each tile also writes private blocks that overflow its L1 set,
// so owners write back and entries are released from their lines.
func TestDirEntriesNamedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	delayRng := rand.New(rand.NewSource(7 * 77))
	ts := newTestSystem(func(*noc.Message) sim.Time {
		return sim.Time(1 + delayRng.Intn(40))
	})
	// Six shared blocks into one 4-way set at home 0, six into another
	// at home 1, and a hot block at home 2.
	shared := l2ConflictAddrs(6)
	for _, b := range l2ConflictAddrs(6) {
		shared = append(shared, b+1<<HomePageShift+64)
	}
	shared = append(shared, 0x702000)
	// Six private blocks per tile at home 3: one L1 set of four ways,
	// six L2 sets.
	private := make([][]uint64, 16)
	blocks := slices.Clone(shared)
	for tile := range private {
		for j := 0; j < 6; j++ {
			b := uint64(0x4000000 + 3<<HomePageShift + j<<16 + tile<<20)
			private[tile] = append(private[tile], b)
			blocks = append(blocks, b)
		}
	}
	check := func() {
		for _, h := range ts.p.homes {
			checkDirStorage(t, h, blocks)
			checkHomeQueue(t, h)
		}
	}
	const opsPerTile = 60
	doneCount := 0
	var launch func(tile, remaining int)
	launch = func(tile, remaining int) {
		if remaining == 0 {
			doneCount++
			return
		}
		addr := shared[rng.Intn(len(shared))]
		if rng.Intn(2) == 0 {
			addr = private[tile][rng.Intn(6)]
		}
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
	ts.k.Run(func() bool {
		check()
		return false
	})
	if doneCount != 16 {
		t.Fatalf("only %d/16 tiles finished", doneCount)
	}
	ts.drain(t)
	check()
	ts.checkInvariants(t, blocks)
	var recalls, fills, writebacks uint64
	for tile := 0; tile < 16; tile++ {
		recalls += ts.p.Home(tile).Recalls.Value()
		fills += ts.p.Home(tile).MemFetches.Value()
		writebacks += ts.p.L1(tile).Writebacks.Value() + ts.p.L1(tile).Hints.Value()
	}
	if recalls == 0 || fills <= uint64(len(blocks)) || writebacks == 0 {
		t.Fatalf("%d recalls, %d fills for %d blocks and %d replacements: the workload left some entry move untried",
			recalls, fills, len(blocks), writebacks)
	}
}

// TestDirEntryReleasedTwicePanics releases one directory entry twice,
// once for a block with an L2 line and once for a block without one:
// the second release must panic before the entry rejoins the freelist.
func TestDirEntryReleasedTwicePanics(t *testing.T) {
	const block = 0x200000 // home 0
	for _, c := range []struct {
		name string
		inL2 bool
		want string
	}{
		{"with an L2 line", true, "but its L2 line names 0"},
		{"without an L2 line", false, "is on no line and not on the side list"},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newTestSystem(nil).p.Home(HomeOf(block, DefaultConfig().Tiles))
			if c.inL2 {
				h.l2.Insert(block, cache.Shared)
			}
			e, _ := h.entry(block)
			h.release(block, e)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Fatalf("second release: panic %q, want one containing %q", msg, c.want)
				}
			}()
			h.release(block, e)
		})
	}
}
