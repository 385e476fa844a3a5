// Package coherence implements the directory-based MESI protocol of the
// tiled CMP (paper Section 4.1/4.2): per-tile L1 caches kept coherent by
// a directory held in the tags of the home tile's L2 slice, over an
// arbitrary message transport.
//
// Protocol shape:
//
//   - The home tile serializes transactions per block (home-blocking):
//     while a transaction is in flight the block is busy and later
//     requests queue at the home in arrival order.
//   - Reads (GetS) are granted E when no other copy exists, else S. A
//     modified/exclusive copy elsewhere is forwarded (FwdGetS): the owner
//     sends the line straight to the requestor (the critical 3a leg) and
//     a Revision copy back to the home (the non-critical 3b leg).
//   - Writes (GetX/Upgrade) invalidate sharers; invalidation acks flow
//     directly to the requestor, which completes when it holds data plus
//     every expected ack.
//   - L1 evictions of M lines send WriteBack (with data); E lines send a
//     ReplacementHint; S lines are silent (so directory sharer sets are
//     supersets and invalidations of absent lines are simply acked).
//     Evicted M/E lines stay addressable in a writeback buffer until the
//     home acknowledges (WBAck), and serve interventions that raced with
//     the eviction from there.
//   - L2 is inclusive: fills that evict a directory-present victim first
//     recall it (invalidate sharers / pull back the owner's copy).
//
// The package is transport-agnostic: controllers emit messages through a
// Sender and receive them via Deliver, so the same protocol runs over
// the timed mesh or over a zero-latency loopback in tests.
package coherence

import (
	"fmt"
	"math/bits"

	"tilesim/internal/noc"
	"tilesim/internal/obs"
	"tilesim/internal/sim"
	"tilesim/internal/stats"
)

// Sender injects a protocol message into the transport. The message is
// passed by value: the transport owns its copy. The transport must
// deliver every message exactly once, but may reorder freely; the
// protocol tolerates reordering through MSHR ack counting and home
// queueing.
type Sender func(noc.Message)

// Config parameterizes the protocol timing (paper Table 4).
type Config struct {
	Tiles int
	// L1HitCycles is the L1 access latency.
	L1HitCycles int
	// L2TagCycles is the directory/tag access at the home.
	L2TagCycles int
	// L2DataCycles is the additional data-array access for replies.
	L2DataCycles int
	// MemCycles is the off-chip access latency.
	MemCycles int
	// MSHRs is the per-L1 miss-register count (demand misses plus
	// writeback buffer entries).
	MSHRs int
	// ReplyPartitioning enables the extension of Flores et al. [9]: data
	// responses split into a critical-word PartialReply plus a relaxed
	// (non-critical) full-line reply; the core resumes on the partial.
	ReplyPartitioning bool
}

// DefaultConfig returns the paper's 16-tile configuration: L1 2 cycles,
// L2 6+2 cycles, memory 400 cycles.
func DefaultConfig() Config {
	return Config{
		Tiles:        16,
		L1HitCycles:  2,
		L2TagCycles:  2,
		L2DataCycles: 6,
		MemCycles:    400,
		MSHRs:        8,
	}
}

// HomePageShift sets the home-interleaving granularity: 4 KB pages.
// Page-granularity NUCA placement is what makes small-low-order address
// compression meaningful (paper Figure 2's 1-byte-LO configurations): a
// compression base region must stay within one home for per-destination
// bases to re-hit.
const HomePageShift = 12

// HomeOf returns the home tile of a block address: page-granularity
// interleaving.
func HomeOf(addr uint64, tiles int) int {
	if bits.OnesCount(uint(tiles)) != 1 {
		panic(fmt.Sprintf("coherence: tile count %d not a power of two", tiles))
	}
	return int((addr >> HomePageShift) & uint64(tiles-1))
}

// Protocol owns every tile's controllers and the shared transaction
// counter. All controllers run on one simulation kernel.
type Protocol struct {
	cfg  Config
	k    *sim.Kernel
	send Sender

	l1s   []*L1Controller
	homes []*HomeController

	nextTxn uint64

	// Fixed-delay step queues (dispatch.go), one per step kind for the
	// whole chip.
	accessQ    *sim.DelayQueue[l1Access]   // Load/Store -> access, after L1HitCycles
	retryQ     *sim.DelayQueue[l1Retry]    // MSHR-full miss retry, after 4 cycles
	fwdQ       *sim.DelayQueue[l1FwdReply] // intervention reply burst, after L1HitCycles
	tagQ       *sim.DelayQueue[homeReq]    // home request/replacement, after L2TagCycles
	fillQ      *sim.DelayQueue[homeFill]   // memory fill, after MemCycles
	fillRetryQ *sim.DelayQueue[homeFill]   // victim-busy fill retry, after 8 cycles
	// Deferred data grants (sendDataGrant): sendAfterData waits out the
	// L2 data-array read; sendAfterFill sends later in the cycle in
	// which a memory fill lands (the fill already paid the latency).
	sendAfterData *sim.DelayQueue[noc.Message]
	sendAfterFill *sim.DelayQueue[noc.Message]

	// Observability (obs.go): optional tracer and the chip-wide
	// MSHR-residency distribution. Reads only; never affects timing.
	tracer        *obs.Tracer
	mshrResidency stats.Mean
}

// New builds the protocol. send is invoked for every outgoing message
// (including tile-local ones; the transport decides how to route those).
func New(k *sim.Kernel, cfg Config, send Sender) *Protocol {
	if cfg.Tiles < 2 || cfg.Tiles > MaxTiles || bits.OnesCount(uint(cfg.Tiles)) != 1 {
		panic(fmt.Sprintf("coherence: tile count %d must be a power of two in 2..%d", cfg.Tiles, MaxTiles))
	}
	p := &Protocol{cfg: cfg, k: k, send: send}
	p.initQueues()
	p.l1s = make([]*L1Controller, cfg.Tiles)
	p.homes = make([]*HomeController, cfg.Tiles)
	for i := 0; i < cfg.Tiles; i++ {
		p.l1s[i] = newL1Controller(p, i)
		p.homes[i] = newHomeController(p, i)
	}
	return p
}

// L1 returns tile id's L1 controller.
func (p *Protocol) L1(id int) *L1Controller { return p.l1s[id] }

// Home returns tile id's home (L2 slice + directory) controller.
func (p *Protocol) Home(id int) *HomeController { return p.homes[id] }

// Config returns the protocol configuration.
func (p *Protocol) Config() Config { return p.cfg }

// Deliver routes an arriving message to the right controller at its
// destination tile. m is valid only during the call: controllers copy
// out the fields they keep and never retain the pointer.
func (p *Protocol) Deliver(m *noc.Message) {
	switch m.Type {
	case noc.GetS, noc.GetX, noc.Upgrade, noc.WriteBack, noc.ReplacementHint, noc.Revision, noc.OwnAck:
		p.homes[m.Dst].deliver(m)
	case noc.InvAck:
		// Invalidation acks flow to the write requestor's L1, except
		// during L2 inclusion recalls, where the home collects them.
		block := m.Addr &^ uint64(noc.LineBytes-1)
		if p.homes[m.Dst].wantsInvAck(block) {
			p.homes[m.Dst].deliver(m)
		} else {
			p.l1s[m.Dst].deliver(m)
		}
	case noc.Data, noc.DataExclusive, noc.AckNoData, noc.WBAck, noc.Inv, noc.FwdGetS, noc.FwdGetX, noc.PartialReply:
		p.l1s[m.Dst].deliver(m)
	default:
		panic(fmt.Sprintf("coherence: undeliverable message type %v", m.Type))
	}
}

func (p *Protocol) txn() uint64 {
	p.nextTxn++
	return p.nextTxn
}

// msg builds a protocol message with simulator-tracked address.
func (p *Protocol) msg(t noc.Type, src, dst int, addr uint64, txn uint64) noc.Message {
	return noc.Message{Type: t, Src: src, Dst: dst, Addr: addr, Txn: txn}
}

// OutstandingTransactions reports protocol liveness state for drain
// checks: the number of busy home entries plus live L1 MSHR entries.
func (p *Protocol) OutstandingTransactions() int {
	n := 0
	for _, h := range p.homes {
		n += h.busyCount()
	}
	for _, l := range p.l1s {
		n += l.mshr.Len()
	}
	return n
}
