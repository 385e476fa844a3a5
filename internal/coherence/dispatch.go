package coherence

// This file holds the prebound pending-state machines (DESIGN.md
// §16.2): each fixed-latency step that used to be one closure per
// reference or transaction is a value record pushed onto one of the
// Protocol's sim.DelayQueues. A queue serves the whole chip: every push
// onto it schedules the same constant delay, so one FIFO dispatches in
// exactly the order the per-tile closures fired, and the steady state
// allocates nothing. L1 records carry their tile; home records find
// their home from the block address.

import (
	"tilesim/internal/noc"
	"tilesim/internal/sim"
)

// The protocol's latencies in cycles (paper Table 4: L1 2 cycles, L2
// 6+2 cycles, memory 400 cycles). The retry delays beside them in
// initQueues are the model's own.
const (
	// L1HitCycles is the L1 access latency.
	L1HitCycles = 2
	// L2TagCycles is the directory/tag access at the home.
	L2TagCycles = 2
	// L2DataCycles is the additional data-array access for replies.
	L2DataCycles = 6
	// MemCycles is the off-chip access latency.
	MemCycles = 400
)

// initQueues builds the Protocol's step queues, each routing its
// records to the owning controller.
func (p *Protocol) initQueues() {
	k := p.k
	p.accessQ = sim.NewDelayQueue(k, L1HitCycles, func(a *l1Access) { p.l1s[a.tile].dispatchAccess(a) })
	p.retryQ = sim.NewDelayQueue(k, 4, func(r *l1Retry) { p.l1s[r.tile].dispatchRetry(r) })
	p.fwdQ = sim.NewDelayQueue(k, L1HitCycles, func(r *l1FwdReply) { p.l1s[r.tile].dispatchFwdReply(r) })
	p.tagQ = sim.NewDelayQueue(k, L2TagCycles, func(r *homeReq) { p.homeOf(r.block).dispatchTag(r) })
	fill := func(f *homeFill) { p.homeOf(f.block).fillL2(f.block) }
	p.fillQ = sim.NewDelayQueue(k, MemCycles, fill)
	p.fillRetryQ = sim.NewDelayQueue(k, 8, fill)
	send := func(m *noc.Message) { p.send(*m) }
	p.sendAfterData = sim.NewDelayQueue(k, L2DataCycles, send)
	p.sendAfterFill = sim.NewDelayQueue(k, 0, send)
}

// homeOf returns the home controller of block.
func (p *Protocol) homeOf(block uint64) *HomeController {
	return p.homes[HomeOf(block, p.cfg.Tiles)]
}

// l1Access is one pending core access, dispatched after the L1 hit
// latency (the old per-reference Load/Store closure).
type l1Access struct {
	tile    int
	addr    uint64
	isWrite bool
	done    func()
}

// l1Retry is one MSHR-full miss retry, dispatched after the fixed
// backoff (the old per-miss retry closure).
type l1Retry struct {
	tile  int
	block uint64
	req   int // noc.Type, kept opaque to keep the record flat
	done  func()
}

// l1FwdReply is one intervention reply burst, dispatched after the L1
// access latency (the old respond closure of onFwd).
type l1FwdReply struct {
	tile    int
	block   uint64
	replyTo int
	txn     uint64
	dirty   bool
	noCopy  bool
}

// homeReq is one home-bound request or replacement: the fields the
// directory needs from the message, extracted at delivery (the
// delivered *noc.Message is valid only during Deliver). Used both for
// the tag-latency dispatch queue and for requests parked behind a busy
// directory entry.
type homeReq struct {
	typ   int // noc.Type, kept opaque to keep the record flat
	src   int
	txn   uint64
	block uint64
}

// homeFill is one pending memory fill (or its victim-busy retry),
// dispatched after the memory latency (the old fillL2 closure).
type homeFill struct {
	block uint64
}
