package coherence

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

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
		queued += int(e.queued)
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

// TestDirEntryIsOneHostCacheLine pins the directory's layout: an entry
// is 64 bytes, one host cache line, and a chunk of entries holds no
// pointer, so the GC never scans the directory. The sharer sets live
// in the chunk's word array instead.
func TestDirEntryIsOneHostCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(dirEntry{}); got != 64 {
		t.Errorf("unsafe.Sizeof(dirEntry{}) = %d, want 64", got)
	}
	if holdsPointers(reflect.TypeOf(dirChunk{})) {
		t.Error("dirChunk holds pointers")
	}
}

// holdsPointers reports whether a value of type t holds a pointer the
// garbage collector must scan.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && holdsPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
}

// TestDirEntryReleasedTwicePanics releases one directory entry twice,
// once for a block with an L2 line and once for a block without one.
// The first release must poison the entry, so that it tracks no block
// and names no owner, and the second must panic before the entry
// rejoins the freelist.
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
			if e.block != poisonBlock || e.owner != -2 {
				t.Fatalf("released entry tracks block %#x with owner %d, want the poison %#x and -2", e.block, e.owner, poisonBlock)
			}
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

// TestDirSharerWordsFollowSharers runs a random workload on a 1024-tile
// chip, where a sharer set is 16 words, and checks the directory's
// sharer storage after every kernel event against a reference the test
// keeps from the protocol's own messages:
//
//   - every touched block whose requests the home has all answered has
//     a DirInfo mask, 16 words wide, equal to the reference bitmap;
//   - a chunk has a word array only if one of its entries has held a
//     sharer, or it holds the entry of a block with a request still
//     unanswered (whose grant may have added a sharer the reference has
//     not seen yet).
//
// The reference follows the home's serialization order: a shared Data
// grant for a GetS adds its destination, a Data grant for a GetX or an
// Upgrade, an AckNoData and an FwdGetX's Revision clear the set, an
// FwdGetS's Revision adds the requestor and (unless NoCopy) the old
// owner, and a recall's last ack clears it. Grants leave the home in
// the cycle they are made (L2DataCycles 0), and each leaves in push
// order, so each grant message arrives in the reference in the order
// its grant was made. Forty tiles spread over every sharer word read
// and write shared blocks at three homes, six blocks overflowing one L2
// set at a fourth (recalls of shared blocks), and private blocks
// overflowing their L1 set at a fifth, which never get a sharer.
func TestDirSharerWordsFollowSharers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tiles = 1024
	cfg.L2DataCycles = 0
	const words = 16 // sharerWords(1024)
	rng := rand.New(rand.NewSource(11))
	delayRng := rand.New(rand.NewSource(11 * 77))

	tiles := make([]int, 40)
	for i := range tiles {
		tiles[i] = i*25 + i%7 // 0..981, every sharer word
	}
	// Home bits are addr[12:22). A 1024-tile slice's set index is
	// addr[6:12) ++ addr[22:26), so a 64 MB stride keeps home and L2
	// set, and a 4 MB stride keeps home and L1 set (addr[6:13)).
	var shared, conflict []uint64
	for _, home := range []uint64{0, 517, 1023} {
		for j := uint64(0); j < 3; j++ {
			shared = append(shared, home<<HomePageShift+j*64)
		}
	}
	for j := uint64(0); j < 6; j++ {
		conflict = append(conflict, 3<<HomePageShift+0x80+j<<26)
	}
	private := make([][]uint64, len(tiles))
	blocks := slices.Concat(shared, conflict)
	for i := range private {
		for j := uint64(0); j < 6; j++ {
			b := 9<<HomePageShift + uint64(i)<<6 + j<<22
			private[i] = append(private[i], b)
			blocks = append(blocks, b)
		}
	}
	index := make(map[uint64]int, len(blocks))
	for i, b := range blocks {
		index[b] = i
	}

	ref := make([]SharerSet, len(blocks)) // reference sharer sets
	for i := range ref {
		ref[i] = make(SharerSet, words)
	}
	open := make([]int, len(blocks))  // requests the home has not answered
	reqs := make(map[uint64]noc.Type) // unanswered request type by txn
	fwdS := make(map[uint64]int)      // FwdGetS requestor by txn
	fwdX := make(map[uint64]bool)     // FwdGetX txns awaiting the Revision
	recalls := make(map[uint64]int)   // recall acks outstanding by txn
	held := make(map[[2]int]bool)     // (home, chunk) that has held a sharer
	sent := make(map[noc.Type]int)
	homes := []int{0, 3, 9, 517, 1023} // every home the blocks have
	var p *Protocol
	chunkOf := func(h *HomeController, e *dirEntry) [2]int {
		return [2]int{h.id, int(e.ref-1) / entryChunk}
	}
	add := func(b uint64, tile int) {
		ref[index[b]].Add(tile)
		h := p.homeOf(b)
		e, _ := h.lookup(b)
		if e == nil {
			t.Fatalf("block %#x gained a sharer without a directory entry", b)
		}
		held[chunkOf(h, e)] = true
	}
	k := sim.NewKernel()
	p = New(k, cfg, func(m noc.Message) {
		m.SizeBytes = m.UncompressedSize()
		sent[m.Type]++
		b := m.Addr &^ uint64(noc.LineBytes-1)
		switch m.Type {
		case noc.GetS, noc.GetX, noc.Upgrade:
			reqs[m.Txn] = m.Type
			open[index[b]]++
		case noc.Data, noc.DataExclusive, noc.AckNoData, noc.FwdGetS, noc.FwdGetX:
			req, ok := reqs[m.Txn]
			if !ok {
				break // an owner's reply to a forward
			}
			delete(reqs, m.Txn)
			open[index[b]]--
			switch {
			case m.Type == noc.FwdGetS:
				fwdS[m.Txn] = m.ReplyTo
			case m.Type == noc.FwdGetX:
				fwdX[m.Txn] = true
			case m.Type == noc.Data && req == noc.GetS:
				add(b, m.Dst)
			case m.Type != noc.DataExclusive:
				ref[index[b]].Clear()
			}
		case noc.Inv:
			if m.Recall {
				recalls[m.Txn]++
			}
		}
		k.Schedule(sim.Time(1+delayRng.Intn(40)), func() {
			if m.Type == noc.Revision {
				if r, ok := fwdS[m.Txn]; ok {
					delete(fwdS, m.Txn)
					add(b, r)
					if !m.NoCopy {
						add(b, m.Src)
					}
				} else if fwdX[m.Txn] {
					delete(fwdX, m.Txn)
					ref[index[b]].Clear()
				}
			}
			p.Deliver(&m)
			if n, ok := recalls[m.Txn]; ok && (m.Type == noc.InvAck || m.Type == noc.Revision) {
				if n == 1 {
					delete(recalls, m.Txn)
					ref[index[b]].Clear()
				} else {
					recalls[m.Txn] = n - 1
				}
			}
		})
	})

	multiWord := false
	check := func() {
		excused := make(map[[2]int]bool)
		for i, b := range blocks {
			h := p.homeOf(b)
			got, _, _, _ := h.DirInfo(b)
			if len(got) != words {
				t.Fatalf("DirInfo(%#x) is %d words, want %d", b, len(got), words)
			}
			if open[i] > 0 {
				if e, _ := h.lookup(b); e != nil {
					excused[chunkOf(h, e)] = true
				}
				continue
			}
			if !slices.Equal(got, ref[i]) {
				t.Fatalf("cycle %d: block %#x: directory sharers %x, reference %x", k.Now(), b, got, ref[i])
			}
			if got.Next(64) >= 0 && got.Next(0) < 64 {
				multiWord = true
			}
		}
		for _, home := range homes {
			for ci, c := range p.homes[home].chunks {
				key := [2]int{home, ci}
				if c.words != nil && !held[key] && !excused[key] {
					t.Fatalf("cycle %d: home %d chunk %d has sharer words, but none of its entries has held a sharer", k.Now(), home, ci)
				}
			}
		}
	}

	const opsPerTile = 60
	doneCount := 0
	var launch func(i, remaining int)
	launch = func(i, remaining int) {
		if remaining == 0 {
			doneCount++
			return
		}
		var addr uint64
		switch r := rng.Intn(8); {
		case r < 4:
			addr = shared[rng.Intn(len(shared))]
		case r < 6:
			addr = conflict[rng.Intn(len(conflict))]
		default:
			addr = private[i][rng.Intn(6)]
		}
		cont := func() { launch(i, remaining-1) }
		if rng.Intn(4) == 0 {
			p.L1(tiles[i]).Store(addr, cont)
		} else {
			p.L1(tiles[i]).Load(addr, cont)
		}
	}
	for i := range tiles {
		launch(i, opsPerTile)
	}
	k.Run(func() bool {
		check()
		return false
	})
	if doneCount != len(tiles) {
		t.Fatalf("only %d/%d tiles finished", doneCount, len(tiles))
	}
	if n := p.OutstandingTransactions(); n != 0 {
		t.Fatalf("%d transactions outstanding after the run", n)
	}
	check()

	withWords, without := 0, 0
	for _, home := range homes {
		for _, c := range p.homes[home].chunks {
			if c.words != nil {
				withWords++
			} else {
				without++
			}
		}
	}
	recalled := p.homes[3].Recalls.Value() + p.homes[9].Recalls.Value()
	if !multiWord || recalled == 0 || withWords == 0 || without == 0 ||
		sent[noc.Upgrade] == 0 || sent[noc.FwdGetS] == 0 || sent[noc.FwdGetX] == 0 || sent[noc.WriteBack] == 0 {
		t.Fatalf("the workload left a path untried: sharers across words %v, %d recalls, %d chunks with words and %d without, %d upgrades, %d FwdGetS, %d FwdGetX, %d writebacks",
			multiWord, recalled, withWords, without, sent[noc.Upgrade], sent[noc.FwdGetS], sent[noc.FwdGetX], sent[noc.WriteBack])
	}
	t.Logf("%d recalls, %d chunks with words and %d without, %d upgrades, %d FwdGetS, %d FwdGetX, %d writebacks",
		recalled, withWords, without, sent[noc.Upgrade], sent[noc.FwdGetS], sent[noc.FwdGetX], sent[noc.WriteBack])
}
