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

// initQueues builds the Protocol's step queues, each routing its
// records to the owning controller.
func (p *Protocol) initQueues() {
	k, cfg := p.k, p.cfg
	hit := sim.Time(cfg.L1HitCycles)
	p.accessQ = sim.NewDelayQueue(k, hit, func(a *l1Access) { p.l1s[a.tile].dispatchAccess(a) })
	p.retryQ = sim.NewDelayQueue(k, 4, func(r *l1Retry) { p.l1s[r.tile].dispatchRetry(r) })
	p.fwdQ = sim.NewDelayQueue(k, hit, func(r *l1FwdReply) { p.l1s[r.tile].dispatchFwdReply(r) })
	p.tagQ = sim.NewDelayQueue(k, sim.Time(cfg.L2TagCycles), func(r *homeReq) { p.homeOf(r.block).dispatchTag(r) })
	fill := func(f *homeFill) { p.homeOf(f.block).fillL2(f.block) }
	p.fillQ = sim.NewDelayQueue(k, sim.Time(cfg.MemCycles), fill)
	p.fillRetryQ = sim.NewDelayQueue(k, 8, fill)
	send := func(m *noc.Message) { p.send(*m) }
	p.sendAfterData = sim.NewDelayQueue(k, sim.Time(cfg.L2DataCycles), send)
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
