package cmp

import (
	"tilesim/internal/sim"
	"tilesim/internal/workload"
)

// Core is the in-order 2-way processing core of one tile (paper Table
// 4). It executes its workload stream sequentially: compute phases
// advance the clock, memory references go through the tile's L1
// controller and block until they complete, barriers synchronize all
// cores.
type Core struct {
	id  int
	sys *System
	gen workload.Generator

	// stepFn is c.step bound once at construction: the method value
	// c.step allocates a fresh bound-method closure at every
	// evaluation, and step is scheduled once per executed operation.
	stepFn sim.Event

	done       bool
	finishedAt sim.Time
	warmed     bool

	// Counters.
	ComputeCycles uint64
	Refs          uint64
	Barriers      uint64
}

func newCore(id int, sys *System, gen workload.Generator) *Core {
	c := &Core{id: id, sys: sys, gen: gen}
	c.stepFn = c.step
	return c
}

func (c *Core) start() {
	c.sys.K.Schedule(0, c.stepFn)
}

// step executes the core's next workload operation; it is the event
// the kernel dispatches once per compute phase, memory reference and
// barrier arrival.
func (c *Core) step() {
	// Measurement starts once every core has issued its warmup refs;
	// the warmup barrier also aligns the cores, like the start of the
	// timed parallel phase in the paper's methodology.
	if !c.warmed && c.sys.cfg.WarmupRefs > 0 && c.Refs >= uint64(c.sys.cfg.WarmupRefs) {
		c.warmed = true
		c.sys.warm.arrive(c.sys.K, c.stepFn)
		return
	}
	op, ok := c.gen.Next(c.id)
	if !ok {
		c.done = true
		c.finishedAt = c.sys.K.Now()
		c.sys.running--
		if c.sys.running == 0 && c.sys.series != nil {
			c.sys.series.End(c.finishedAt)
		}
		return
	}
	switch op.Kind {
	case workload.OpCompute:
		c.ComputeCycles += uint64(op.Cycles)
		c.sys.K.Schedule(sim.Time(op.Cycles), c.stepFn)
	case workload.OpLoad:
		c.Refs++
		c.sys.Proto.L1(c.id).Load(op.Addr, c.stepFn)
	case workload.OpStore:
		c.Refs++
		c.sys.Proto.L1(c.id).Store(op.Addr, c.stepFn)
	case workload.OpBarrier:
		c.Barriers++
		c.sys.bar.arrive(c.sys.K, c.stepFn)
	}
}

// barrier is a centralized sense-reversing barrier. The synchronization
// itself is magic (no protocol traffic); the memory traffic of real
// barrier spinning is second-order for the link-energy questions this
// simulator answers (see DESIGN.md).
type barrier struct {
	n       int
	arrived int
	waiting []func()
	// onAll runs once per release, before the waiters resume.
	onAll func()
}

func newBarrier(n int) *barrier { return &barrier{n: n} }

func (b *barrier) arrive(k *sim.Kernel, cont func()) {
	b.arrived++
	b.waiting = append(b.waiting, cont)
	if b.arrived < b.n {
		return
	}
	conts := b.waiting
	b.arrived = 0
	b.waiting = nil
	if b.onAll != nil {
		b.onAll()
	}
	for _, c := range conts {
		k.Schedule(1, c)
	}
}
