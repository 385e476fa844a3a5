package coherence

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tilesim/internal/cache"
	"tilesim/internal/compress"
	"tilesim/internal/core"
	"tilesim/internal/fault"
	"tilesim/internal/mesh"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
)

// The coherence tests share one harness: one system builder, one
// random workload (drive), and one checker that runs after every kernel event on
// the blocks that event sent or delivered and on their homes, and
// again on every block the run touched once the system drains.

// rig describes one test system: the protocol's configuration and its
// transport. The loopback delivers each message after its delay rule's
// cycles. The interconnect is a topology, a mesh.Layout link layout, a
// fault injector and core.Manager with a DBRC-4/2B codec (none on
// L+PW), and the layout decides Reply Partitioning, as in
// cmp.NewSystem.
type rig struct {
	tiles, mshrs int  // 0 keeps DefaultConfig's
	rp           bool // the loopback's Reply Partitioning
	// delay is the loopback's delay rule; nil means one cycle.
	delay func(*noc.Message) sim.Time
	// topo names the interconnect's topology; "" selects the loopback.
	// wiring is "vlb", "lpw" or "vlbpw".
	topo, wiring string
	faults       fault.Config
	seed         int64 // the fault injector's
}

// testSystem is one protocol under test on its transport.
type testSystem struct {
	t   testing.TB
	k   *sim.Kernel
	p   *Protocol
	net *mesh.Network // nil on the loopback
	// sent counts the protocol's messages by type.
	sent map[noc.Type]int
	// onSend, when set, sees each protocol message first; returning
	// true keeps it from the transport, and the test hands it to
	// deliver later.
	onSend func(*noc.Message) bool
	// inFlight counts the sent values not yet delivered: two identical
	// messages may be in flight at once. remote counts the protocol's
	// messages on the network, and peak is the most messages the
	// network held after a send.
	inFlight     map[noc.Message]int
	remote, peak int

	// The checker's state: the blocks the current event sent or
	// delivered, every block touched so far in first-touch order, and
	// what the messages so far say of each block and transaction.
	touched, order []uint64
	blocks         map[uint64]*blockRef
	reqs           map[uint64]noc.Type // unanswered request type by txn
	fwdS           map[uint64]int      // FwdGetS requestor by txn
	fwdX           map[uint64]bool     // FwdGetX txns awaiting the Revision
	recalls        map[uint64]int      // recall acks outstanding by txn
	held           map[[2]int]bool     // (home, chunk) whose entries have held a sharer
	spans          bool                // some reference set had sharers in two words
	free           []bool              // checkHome's scratch
	homes, shared  []int               // check's and checkBlock's scratch
}

// blockRef is what the messages say of one block.
type blockRef struct {
	// tiles holds every tile that sent or received a message on the
	// block: every L1 that can hold it or have an MSHR on it.
	tiles SharerSet
	// sharers is the home's sharer set as its grants, forwards'
	// Revisions and recall acks build it, in grant order.
	sharers SharerSet
	open    int      // requests the home has not answered
	cleared sim.Time // one past the cycle sharers was last cleared, 0 if never
}

// poisoned overwrites every delivered message once Deliver returns, so
// a protocol that kept the pointer past the call would read garbage.
var poisoned = noc.Message{Src: -1, Dst: -1, Addr: ^uint64(0), Txn: ^uint64(0), AckCount: -1, ReplyTo: -1}

// churnTag marks the messages a test injects beside the protocol's
// own; protocol transaction ids never reach it.
const churnTag = uint64(1) << 63

func newTestSystem(t testing.TB, r rig) *testSystem {
	t.Helper()
	cfg := DefaultConfig()
	if r.tiles != 0 {
		cfg.Tiles = r.tiles
	}
	if r.mshrs != 0 {
		cfg.MSHRs = r.mshrs
	}
	cfg.ReplyPartitioning = r.rp
	ts := &testSystem{t: t, k: sim.NewKernel(), sent: map[noc.Type]int{}, inFlight: map[noc.Message]int{},
		blocks: map[uint64]*blockRef{}, reqs: map[uint64]noc.Type{}, fwdS: map[uint64]int{},
		fwdX: map[uint64]bool{}, recalls: map[uint64]int{}, held: map[[2]int]bool{}}
	var carry func(noc.Message)
	if r.topo == "" {
		carry = ts.loopback(r.delay)
	} else {
		cfg.ReplyPartitioning = mesh.ReplyPartitioning(r.wiring)
		carry = ts.interconnect(r, cfg.Tiles)
	}
	ts.p = New(ts.k, cfg, func(m noc.Message) {
		ts.sent[m.Type]++
		ts.noteSend(&m)
		if ts.onSend != nil && ts.onSend(&m) {
			ts.inFlight[m]++
			return
		}
		carry(m)
	})
	return ts
}

// loopback returns a transport that delivers each message after delay.
func (ts *testSystem) loopback(delay func(*noc.Message) sim.Time) func(noc.Message) {
	if delay == nil {
		delay = func(*noc.Message) sim.Time { return 1 }
	}
	return func(m noc.Message) {
		m.SizeBytes = m.UncompressedSize()
		ts.inFlight[m]++
		ts.k.Schedule(delay(&m), func() { ts.deliver(&m) })
	}
}

// interconnect builds r's network on a square router grid and returns
// the transport that sends through its message manager.
func (ts *testSystem) interconnect(r rig, tiles int) func(noc.Message) {
	conc := 1
	if r.topo == "cmesh" {
		conc = 4
	}
	side := int(math.Sqrt(float64(tiles / conc)))
	topo, errT := mesh.NewTopology(r.topo, side, side, conc)
	spec := compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}
	if r.wiring == "lpw" {
		spec = compress.Spec{Kind: "none"}
	}
	codec, errC := spec.Build(tiles)
	cfg, errL := mesh.Layout(r.wiring, codec.CompressedPayloadBytes())
	inj, errF := fault.NewInjector(r.faults, r.seed)
	if err := errors.Join(errT, errL, errC, errF); err != nil {
		ts.t.Fatal(err)
	}
	cfg.Topo = topo
	ts.net = mesh.New(ts.k, cfg, nil)
	if r.faults.Enabled() {
		ts.net.SetInjector(inj)
	}
	mgr := core.New(ts.k, ts.net, codec, nil, ts.deliver)
	return func(m noc.Message) {
		mgr.Send(&m)
		if m.Src != m.Dst {
			ts.remote++
		}
		ts.launched(m)
	}
}

// inject sends a message that is not the protocol's straight into the
// network; its Txn carries churnTag, so its delivery skips the
// protocol.
func (ts *testSystem) inject(m noc.Message) {
	ts.net.Send(&m)
	ts.launched(m)
}

// launched records a value the network or the manager now holds.
func (ts *testSystem) launched(m noc.Message) {
	ts.inFlight[m]++
	ts.peak = max(ts.peak, ts.net.InFlight())
}

// deliver checks that a delivered message is a value still in flight,
// hands protocol traffic to Deliver and poisons the message after it.
func (ts *testSystem) deliver(m *noc.Message) {
	got := *m
	switch n := ts.inFlight[got]; n {
	case 0:
		ts.t.Fatalf("cycle %d: delivered %+v, which no sender has in flight", ts.k.Now(), got)
	case 1:
		delete(ts.inFlight, got)
	default:
		ts.inFlight[got] = n - 1
	}
	if got.Txn&churnTag == 0 {
		if ts.net != nil && got.Src != got.Dst {
			ts.remote--
		}
		ts.noteDeliver(m)
	}
	*m = poisoned
}

// touch puts m's block in the checker's scope and returns it with its
// reference.
func (ts *testSystem) touch(m *noc.Message) (uint64, *blockRef) {
	b := m.Addr &^ uint64(noc.LineBytes-1)
	r := ts.blocks[b]
	if r == nil {
		w := sharerWords(ts.p.cfg.Tiles)
		r = &blockRef{tiles: make(SharerSet, w), sharers: make(SharerSet, w)}
		ts.blocks[b] = r
		ts.order = append(ts.order, b)
	}
	r.tiles.Add(m.Src)
	r.tiles.Add(m.Dst)
	ts.touched = append(ts.touched, b)
	return b, r
}

// noteSend follows a message the protocol sends. A shared Data grant
// adds its destination, and a Data grant for a GetX or an Upgrade or an
// AckNoData clears the set. The home applies a grant when it makes it,
// but a data grant leaves L2DataCycles later, so a clear sent since
// (an upgrade's AckNoData, a recall's last ack) came after the grant:
// its add is then dropped, which applies the grants in grant order.
func (ts *testSystem) noteSend(m *noc.Message) {
	b, r := ts.touch(m)
	switch m.Type {
	case noc.GetS, noc.GetX, noc.Upgrade:
		ts.reqs[m.Txn] = m.Type
		r.open++
	case noc.Data, noc.DataExclusive, noc.AckNoData, noc.FwdGetS, noc.FwdGetX:
		req, ok := ts.reqs[m.Txn]
		if !ok {
			break // an owner's reply to a forward
		}
		delete(ts.reqs, m.Txn)
		r.open--
		switch {
		case m.Type == noc.FwdGetS:
			ts.fwdS[m.Txn] = m.ReplyTo
		case m.Type == noc.FwdGetX:
			ts.fwdX[m.Txn] = true
		case m.Type == noc.Data && req == noc.GetS:
			if granted := ts.k.Now() - L2DataCycles; r.cleared <= granted {
				ts.addSharer(b, r, m.Dst)
			}
		case m.Type != noc.DataExclusive:
			ts.clearSharers(r)
		}
	case noc.Inv:
		if m.Recall {
			ts.recalls[m.Txn]++
		}
	}
}

// noteDeliver hands m to the protocol. An FwdGetS's Revision adds the
// requestor and, unless NoCopy, the old owner; an FwdGetX's Revision
// and a recall's last ack clear the set.
func (ts *testSystem) noteDeliver(m *noc.Message) {
	b, r := ts.touch(m)
	if m.Type == noc.Revision {
		if tile, ok := ts.fwdS[m.Txn]; ok {
			delete(ts.fwdS, m.Txn)
			ts.addSharer(b, r, tile)
			if !m.NoCopy {
				ts.addSharer(b, r, m.Src)
			}
		} else if ts.fwdX[m.Txn] {
			delete(ts.fwdX, m.Txn)
			ts.clearSharers(r)
		}
	}
	ts.p.Deliver(m)
	if n, ok := ts.recalls[m.Txn]; ok && (m.Type == noc.InvAck || m.Type == noc.Revision) {
		ts.recalls[m.Txn] = n - 1
		if n == 1 {
			delete(ts.recalls, m.Txn)
			ts.clearSharers(r)
		}
	}
}

// addSharer adds tile to b's reference set, and marks the chunk of b's
// entry as one whose entries have held a sharer.
func (ts *testSystem) addSharer(b uint64, r *blockRef, tile int) {
	h := ts.p.homeOf(b)
	if e, _ := h.lookup(b); e != nil {
		ts.held[[2]int{h.id, int(e.ref-1) / entryChunk}] = true
	}
	r.sharers.Add(tile)
}

func (ts *testSystem) clearSharers(r *blockRef) {
	r.sharers.Clear()
	r.cleared = ts.k.Now() + 1
}

// runUntil steps the kernel until stop reports true or no event is
// left, running the checker after every event.
func (ts *testSystem) runUntil(stop func() bool) {
	for (stop == nil || !stop()) && ts.k.Step() {
		ts.check()
	}
}

// run drives one access to completion, then the protocol activity
// trailing it, and returns the access's latency.
func (ts *testSystem) run(tile int, addr uint64, write bool) sim.Time {
	ts.t.Helper()
	start, done := ts.k.Now(), false
	if write {
		ts.p.l1s[tile].Store(addr, func() { done = true })
	} else {
		ts.p.l1s[tile].Load(addr, func() { done = true })
	}
	ts.runUntil(func() bool { return done })
	if !done {
		ts.t.Fatalf("access tile=%d addr=%#x write=%v never completed", tile, addr, write)
	}
	end := ts.k.Now()
	ts.runUntil(nil)
	return end - start
}

// drain runs the kernel dry, requires every transaction closed and
// every message delivered, and checks every block the run touched.
func (ts *testSystem) drain() {
	ts.t.Helper()
	ts.runUntil(nil)
	if ts.net != nil {
		if err := ts.net.FaultError(); err != nil {
			ts.t.Fatal(err)
		}
	}
	if n := ts.p.OutstandingTransactions(); n != 0 {
		ts.t.Fatalf("%d transactions outstanding after drain", n)
	}
	if n := len(ts.inFlight); n != 0 {
		ts.t.Fatalf("%d sent messages never delivered", n)
	}
	ts.touched = append(ts.touched[:0], ts.order...)
	ts.check()
}

func (ts *testSystem) state(tile int, addr uint64) cache.State {
	if line := ts.p.l1s[tile].cache.Probe(addr); line != nil {
		return line.State()
	}
	return cache.Invalid
}

// check runs the invariants on the blocks the last event sent or
// delivered and on their homes.
func (ts *testSystem) check() {
	if len(ts.touched) == 0 {
		return
	}
	slices.Sort(ts.touched)
	ts.touched = slices.Compact(ts.touched)
	ts.homes = ts.homes[:0]
	for _, b := range ts.touched {
		ts.homes = append(ts.homes, HomeOf(b, ts.p.cfg.Tiles))
	}
	slices.Sort(ts.homes)
	for _, h := range slices.Compact(ts.homes) {
		ts.checkHome(ts.p.homes[h])
	}
	for _, b := range ts.touched {
		ts.checkBlock(b)
	}
	ts.touched = ts.touched[:0]
}

// checkHome walks home h's directory: busyCount equals a count of the
// busy entries; each entry off the freelist is named exactly once, by
// its block's L2 line or by the side list; the entries' queued counts
// sum to the queue's length and every queued request's block has a
// busy entry; and a chunk has sharer words only if one of its entries
// has held a sharer.
func (ts *testSystem) checkHome(h *HomeController) {
	t, now := ts.t, ts.k.Now()
	n := uint32(len(h.chunks) * entryChunk)
	free := slices.Grow(ts.free[:0], int(n)+1)[:n+1]
	clear(free)
	ts.free = free
	for ref := h.free; ref != 0; ref = h.at(ref).next {
		if ref > n || free[ref] {
			t.Fatalf("cycle %d: home %d: freelist reaches entry %d twice or out of range (%d entries)", now, h.id, ref, n)
		}
		free[ref] = true
	}
	busy, queued := 0, 0
	for ref := uint32(1); ref <= n; ref++ {
		e, names := h.at(ref), 0
		for _, s := range h.side {
			if s == ref {
				names++
			}
		}
		if free[ref] {
			if names > 0 {
				t.Fatalf("cycle %d: home %d: the side list names free entry %d", now, h.id, ref)
			}
			continue
		}
		if line := h.l2.Probe(e.block); line != nil {
			if names > 0 {
				t.Fatalf("cycle %d: home %d: the side list names entry %d of %#x, which has an L2 line", now, h.id, ref, e.block)
			}
			if line.Aux == ref {
				names++
			}
		}
		if names != 1 {
			t.Fatalf("cycle %d: home %d: entry %d (block %#x) is named %d times, want once", now, h.id, ref, e.block, names)
		}
		if e.busy {
			busy++
		}
		queued += int(e.queued)
	}
	if got := h.busyCount(); got != busy {
		t.Fatalf("cycle %d: home %d: busyCount() = %d, a walk of the entries finds %d", now, h.id, got, busy)
	}
	if queued != len(h.queue) {
		t.Fatalf("cycle %d: home %d: entries count %d queued requests, the queue holds %d", now, h.id, queued, len(h.queue))
	}
	for _, r := range h.queue {
		if e, _ := h.lookup(r.block); e == nil || !e.busy {
			t.Fatalf("cycle %d: home %d: a request from tile %d waits on %#x, which has no busy entry", now, h.id, r.src, r.block)
		}
	}
	for ci, c := range h.chunks {
		if c.words != nil && !ts.held[[2]int{h.id, ci}] {
			t.Fatalf("cycle %d: home %d chunk %d has sharer words, but none of its entries has held a sharer", now, h.id, ci)
		}
	}
}

// checkBlock checks block b across the L1s and its home: at most one
// L1 holds it in M or E, and never beside an S copy; any copy implies
// the home's L2 line and a tracked entry; a quiet entry (not busy,
// nothing queued, no L1 MSHR on the block) names the M/E holder as
// owner, or -1 when there is none, and its sharers cover every S
// holder; and once the home has answered every request for b, its
// sharers equal the reference.
func (ts *testSystem) checkBlock(b uint64) {
	t, now, r := ts.t, ts.k.Now(), ts.blocks[b]
	h := ts.p.homeOf(b)
	e, line := h.lookup(b)
	if line != nil && e != nil && e.block != b {
		t.Fatalf("cycle %d: the L2 line of %#x names entry %d, which tracks %#x", now, b, e.ref, e.block)
	}
	owner, quiet := -1, e != nil && !e.busy && e.queued == 0
	ts.shared = ts.shared[:0]
	for tile := r.tiles.Next(0); tile >= 0; tile = r.tiles.Next(tile + 1) {
		l1 := ts.p.l1s[tile]
		if l1.mshr.Lookup(b) != nil {
			quiet = false
		}
		l := l1.cache.Probe(b)
		switch {
		case l == nil:
			continue
		case line == nil || e == nil:
			t.Fatalf("cycle %d: tile %d holds %#x in %v without its home's L2 line or entry", now, tile, b, l.State())
		case l.State() == cache.Shared:
			ts.shared = append(ts.shared, tile)
		case owner >= 0:
			t.Fatalf("cycle %d: %#x is M/E at tiles %d and %d", now, b, owner, tile)
		default:
			owner = tile
		}
	}
	if owner >= 0 && len(ts.shared) > 0 {
		t.Fatalf("cycle %d: %#x is M/E at tile %d beside S copies at %v", now, b, owner, ts.shared)
	}
	var dir SharerSet
	if e != nil {
		dir = h.sharers(e)
	}
	if quiet {
		if int(e.owner) != owner {
			t.Fatalf("cycle %d: the quiet entry of %#x names owner %d, the L1s hold it M/E at %d", now, b, e.owner, owner)
		}
		for _, tile := range ts.shared {
			if !dir.Has(tile) {
				t.Fatalf("cycle %d: tile %d holds %#x in S, but its quiet entry's sharers %x miss it", now, tile, b, dir)
			}
		}
	}
	if r.open > 0 {
		return
	}
	for i, w := range r.sharers {
		if i < len(dir) && dir[i] != w || i >= len(dir) && w != 0 {
			t.Fatalf("cycle %d: %#x: directory sharers %x, reference %x", now, b, dir, r.sharers)
		}
	}
	ts.spans = ts.spans || r.sharers.Next(0) < 64 && r.sharers.Next(64) >= 0
}

// stress is a random workload: each issuing tile runs a chain of ops
// accesses, all tiles at once, taking each address from addr (called
// with the tile's index in tiles) and storing one time in writes.
type stress struct {
	seed        int64
	tiles       []int // the tiles that access; nil: every tile
	ops, writes int
	addr        func(rng *rand.Rand, i int) uint64
}

// drive runs s to completion and drains the system.
func (ts *testSystem) drive(s stress) {
	ts.t.Helper()
	rng := rand.New(rand.NewSource(s.seed))
	tiles := s.tiles
	if tiles == nil {
		tiles = make([]int, ts.p.cfg.Tiles)
		for i := range tiles {
			tiles[i] = i
		}
	}
	finished := 0
	var launch func(i, left int)
	launch = func(i, left int) {
		if left == 0 {
			finished++
			return
		}
		addr := s.addr(rng, i)
		next := func() { launch(i, left-1) }
		if rng.Intn(s.writes) == 0 {
			ts.p.l1s[tiles[i]].Store(addr, next)
		} else {
			ts.p.l1s[tiles[i]].Load(addr, next)
		}
	}
	for i := range tiles {
		launch(i, s.ops)
	}
	ts.drain()
	if finished != len(tiles) {
		ts.t.Fatalf("only %d/%d tiles finished their accesses", finished, len(tiles))
	}
}

// randomDelay is a loopback delay rule: 1 to n cycles from seed's
// stream, plus relaxed more for a relaxed full-line reply.
func randomDelay(seed int64, n, relaxed int) func(*noc.Message) sim.Time {
	rng := rand.New(rand.NewSource(seed))
	return func(m *noc.Message) sim.Time {
		d := sim.Time(1 + rng.Intn(n))
		if m.Relaxed {
			d += sim.Time(relaxed)
		}
		return d
	}
}

// loopbackRows are the table's 16-tile random loopback rows in
// FuzzCoherence's terms, and its seed corpus.
var loopbackRows = []struct {
	name                              string
	seed                              int64
	rp                                bool
	pool, ops, delay, relaxed, writes uint8
}{
	{"seed1", 1, false, 24, 60, 40, 0, 3},
	{"seed2", 2, false, 24, 60, 40, 0, 3},
	{"seed3", 3, false, 24, 60, 40, 0, 3},
	{"seed4", 4, false, 24, 60, 40, 0, 3},
	{"seed5", 5, false, 24, 60, 40, 0, 3},
	{"rp-seed11", 11, true, 16, 40, 30, 40, 3},
	{"rp-seed12", 12, true, 16, 40, 30, 40, 3},
	{"rp-seed13", 13, true, 16, 40, 30, 40, 3},
	{"busy-count", 42, false, 8, 25, 40, 0, 3},
}

// loopbackRow builds a 16-tile loopback row from FuzzCoherence's
// inputs. Its pool's blocks are homed at tile 0, 32 of them to a run
// of L1 and L2 sets, so a pool past 128 blocks overflows both.
func loopbackRow(seed int64, rp bool, pool, ops, delay, relaxed, writes int) (rig, stress) {
	return rig{rp: rp, delay: randomDelay(seed*77, delay, relaxed)},
		stress{seed: seed, ops: ops, writes: writes, addr: func(rng *rand.Rand, _ int) uint64 {
			i := rng.Intn(pool)
			return 0x300000 + uint64(i%32)*64 + uint64(i/32)<<20
		}}
}

// FuzzCoherence runs the checker after every event of a random
// loopback workload. Each input is bounded to milliseconds: up to 192
// blocks, 60 ops per tile and 64 cycles of delay. Beside the table's
// rows, testdata/fuzz/FuzzCoherence keeps the inputs it has failed on:
// stale-partial, a partial reply that its full reply overtook, landing
// on the block's next transaction at the same L1. Run it with
//
//	go test -run '^$' -fuzz '^FuzzCoherence$' -fuzztime 30s -fuzzminimizetime 1s ./internal/coherence
func FuzzCoherence(f *testing.F) {
	for _, r := range loopbackRows {
		f.Add(r.seed, r.rp, r.pool, r.ops, r.delay, r.relaxed, r.writes)
	}
	f.Fuzz(func(t *testing.T, seed int64, rp bool, pool, ops, delay, relaxed, writes uint8) {
		g, s := loopbackRow(seed, rp, max(1, int(pool)%193), max(1, int(ops)%61), max(1, int(delay)%65),
			int(relaxed)%129, max(1, int(writes)%9))
		newTestSystem(t, g).drive(s)
	})
}

// stressRow is one row of TestRandomizedStress: a system, a workload,
// and a guard that the paths the row exists for ran.
type stressRow struct {
	name string
	rig  rig
	stress
	guard func(*testing.T, *testSystem)
}

// TestRandomizedStress runs every random workload with the checker
// after every kernel event: the loopback rows, a row built to move
// directory entries every way they can move, a 1024-tile row whose
// sharer sets span 16 words, and rows on the interconnect.
func TestRandomizedStress(t *testing.T) {
	var rows []stressRow
	for _, r := range loopbackRows {
		g, s := loopbackRow(r.seed, r.rp, int(r.pool), int(r.ops), int(r.delay), int(r.relaxed), int(r.writes))
		rows = append(rows, stressRow{name: r.name, rig: g, stress: s})
	}
	rows = append(rows, dirEntriesRow(), sharerWordsRow(), stressRow{
		name:   "pooled-messages",
		rig:    rig{topo: "mesh", wiring: "vlb", faults: fault.Config{BER: 1e-3, RetryLimit: 64}, seed: 5},
		stress: stress{seed: 11, ops: 25, writes: 2, addr: hotPages},
		guard:  func(t *testing.T, ts *testSystem) { ts.checkReuse(t) },
	})
	for _, topo := range mesh.TopologyNames {
		rows = append(rows, netRow(topo, "vlb", 0), netRow(topo, "vlb", 1e-5))
	}
	rows = append(rows, netRow("mesh", "lpw", 1e-5), netRow("mesh", "vlbpw", 1e-5))
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ts := newTestSystem(t, r.rig)
			ts.drive(r.stress)
			if r.guard != nil {
				r.guard(t, ts)
			}
		})
	}
}

// hotPages picks one of four lines on each of four pages.
func hotPages(rng *rand.Rand, _ int) uint64 {
	return uint64(1+rng.Intn(4))<<HomePageShift + uint64(rng.Intn(4))*64
}

// dirEntriesRow moves directory entries every way they can move.
// Shared blocks overflow one L2 set at each of homes 0 and 1, so
// fills, inclusion recalls and plain evictions move entries between
// lines and the side list. Each tile also writes private blocks at
// home 3 that overflow its L1 set but no L2 set, so owners write back
// and entries are released from their lines.
func dirEntriesRow() stressRow {
	shared := l2ConflictAddrs(6)
	for _, b := range l2ConflictAddrs(6) {
		shared = append(shared, b+1<<HomePageShift+64)
	}
	shared = append(shared, 0x702000)
	return stressRow{
		name: "dir-entries", rig: rig{delay: randomDelay(7*77, 40, 0)},
		stress: stress{seed: 7, ops: 60, writes: 3, addr: func(rng *rand.Rand, i int) uint64 {
			addr := shared[rng.Intn(len(shared))]
			if rng.Intn(2) == 0 {
				addr = 0x4000000 + 3<<HomePageShift + uint64(i)<<6 + uint64(rng.Intn(6))<<16
			}
			return addr
		}},
		guard: func(t *testing.T, ts *testSystem) {
			var recalls, fills, replacements uint64
			for tile := 0; tile < 16; tile++ {
				recalls += ts.p.homes[tile].Recalls.Value()
				fills += ts.p.homes[tile].MemFetches.Value()
				replacements += ts.p.l1s[tile].Writebacks.Value() + ts.p.l1s[tile].Hints.Value()
			}
			if recalls == 0 || fills <= uint64(len(ts.order)) || replacements == 0 {
				t.Fatalf("%d recalls, %d fills for %d blocks and %d replacements: the workload left some entry move untried",
					recalls, fills, len(ts.order), replacements)
			}
		},
	}
}

// sharerWordsRow runs forty tiles spread over every sharer word of a
// 1024-tile chip through shared blocks at three homes, six blocks
// overflowing one L2 set at a fourth (recalls of shared blocks), and
// private blocks overflowing their L1 set at a fifth, which never get
// a sharer. Home bits are addr[12:22); a slice's set index is
// addr[6:12) ++ addr[22:26), so a 64 MB stride keeps home and L2 set,
// and a 4 MB stride keeps home and L1 set (addr[6:13)).
func sharerWordsRow() stressRow {
	tiles := make([]int, 40)
	for i := range tiles {
		tiles[i] = i*25 + i%7 // 0..981, every sharer word
	}
	var shared []uint64
	for _, home := range []uint64{0, 517, 1023} {
		for j := uint64(0); j < 3; j++ {
			shared = append(shared, home<<HomePageShift+j*64)
		}
	}
	homes := []int{0, 3, 9, 517, 1023}
	return stressRow{
		name: "sharer-words-1024", rig: rig{tiles: 1024, delay: randomDelay(11*77, 40, 0)},
		stress: stress{seed: 11, tiles: tiles, ops: 60, writes: 4, addr: func(rng *rand.Rand, i int) uint64 {
			switch r := rng.Intn(8); {
			case r < 4:
				return shared[rng.Intn(len(shared))]
			case r < 6:
				return 3<<HomePageShift + 0x80 + uint64(rng.Intn(6))<<26
			}
			return 9<<HomePageShift + uint64(i)<<6 + uint64(rng.Intn(6))<<22
		}},
		guard: func(t *testing.T, ts *testSystem) {
			withWords, without := 0, 0
			for _, home := range homes {
				for _, c := range ts.p.homes[home].chunks {
					if c.words != nil {
						withWords++
					} else {
						without++
					}
				}
			}
			recalled := ts.p.homes[3].Recalls.Value() + ts.p.homes[9].Recalls.Value()
			if !ts.spans || recalled == 0 || withWords == 0 || without == 0 || ts.sent[noc.Upgrade] == 0 ||
				ts.sent[noc.FwdGetS] == 0 || ts.sent[noc.FwdGetX] == 0 || ts.sent[noc.WriteBack] == 0 {
				t.Fatalf("the workload left a path untried: sharers across words %v, %d recalls, %d chunks with words and %d without, %d upgrades, %d FwdGetS, %d FwdGetX, %d writebacks",
					ts.spans, recalled, withWords, without, ts.sent[noc.Upgrade], ts.sent[noc.FwdGetS], ts.sent[noc.FwdGetX], ts.sent[noc.WriteBack])
			}
		},
	}
}

// netRow runs 64 tiles on topo with the given layout and bit-error
// rate (four times that on the VL-Wires). The tiles share four hot
// pages and six blocks that overflow one L2 set at home 5 (a 4 MB
// stride keeps a 64-tile home and its set). It must see retries under
// faults, partial replies where the layout runs Reply Partitioning,
// and recalls.
func netRow(topo, wiring string, ber float64) stressRow {
	name := topo + "-" + wiring
	if ber > 0 {
		name += "-ber1e-5"
	}
	return stressRow{
		name: name,
		rig:  rig{tiles: 64, topo: topo, wiring: wiring, faults: fault.Config{BER: ber, VLBERScale: 4}, seed: 1},
		stress: stress{seed: 1, ops: 16, writes: 3, addr: func(rng *rand.Rand, i int) uint64 {
			if rng.Intn(4) == 0 {
				return 5<<HomePageShift + 0x40 + uint64(rng.Intn(6))<<22
			}
			return hotPages(rng, i)
		}},
		guard: func(t *testing.T, ts *testSystem) {
			retries, recalls := ts.net.Summary().Retries, ts.p.homes[5].Recalls.Value()
			t.Logf("%d retries, %d partial replies, %d recalls", retries, ts.sent[noc.PartialReply], recalls)
			if ber > 0 && retries == 0 || ts.p.cfg.ReplyPartitioning && ts.sent[noc.PartialReply] == 0 || recalls == 0 {
				t.Fatalf("the workload left a path untried: %d retries, %d partial replies, %d recalls",
					retries, ts.sent[noc.PartialReply], recalls)
			}
		},
	}
}

// checkReuse fails unless the network retransmitted and delivered
// more messages than it can ever have allocated transits for, so that
// checking each delivery against the values in flight proved
// something. A transit is allocated only when the freelist is empty,
// and at most peak+1 are ever live: a handler's own transit no longer
// counts as in flight, and a send from inside the handler adds one.
func (ts *testSystem) checkReuse(t *testing.T) {
	s := ts.net.Summary()
	delivered := 0
	for _, n := range s.Messages {
		delivered += int(n)
	}
	t.Logf("%d network deliveries, peak %d in flight, %d retransmissions", delivered, ts.peak, s.Retries)
	if s.Retries == 0 {
		t.Fatal("no retransmissions; the BER did not exercise the retry path")
	}
	if delivered <= ts.peak+1 {
		t.Fatalf("%d deliveries with up to %d transits live: transits were not reused, so the check proved nothing",
			delivered, ts.peak+1)
	}
}
