package obs

import "tilesim/internal/sim"

// Pollers is the set of periodic samplers attached to one kernel: the
// glue between time-series output (Tracer.Counter events and the epoch
// Series sampler) and the event-driven kernel, which has no notion of
// periodic sampling on its own. Every poller of a system must come
// from one Pollers, because the set counts its own queued ticks.
type Pollers struct {
	k *sim.Kernel
	// queued counts this set's ticks now in the kernel queue; it is
	// what separates real simulation work from sampling in Pending().
	queued int
}

// NewPollers returns an empty poller set on k.
func NewPollers(k *sim.Kernel) *Pollers { return &Pollers{k: k} }

// Poll samples fn once immediately and then every interval cycles for
// as long as the kernel has real simulation work queued.
//
// The immediate sample anchors the series at schedule time (normally
// t=0, before the first simulation event): without it the first
// reading lands at `interval` and the initial window is silently
// truncated — a counter that ramps during cycles [0, interval) would
// fold into the first delta with no baseline row to subtract from.
//
// A poller must never keep a drained simulation alive, and neither may
// two pollers keep each other alive. When a tick fires it has already
// been popped from the queue, so Pending() minus the set's other queued
// ticks counts only real simulation work, and the tick reschedules only
// while that is non-zero. A poller can therefore trail the final
// simulation event by at most one interval (when the last real event
// ties its sample cycle), never more; reported results are unaffected
// because cmp derives execution time from core completion cycles, not
// from the kernel clock at drain.
//
// The callback runs inside the kernel like any other event, but must
// only read state — feeding observations back into the simulation
// would make results depend on whether sampling is enabled.
func (p *Pollers) Poll(interval sim.Time, fn func(now sim.Time)) {
	if interval == 0 {
		interval = 1
	}
	var tick func()
	tick = func() {
		p.queued--
		fn(p.k.Now())
		if p.k.Pending() > p.queued {
			p.queued++
			p.k.Schedule(interval, tick)
		}
	}
	fn(p.k.Now()) // the t=0 baseline sample, at schedule time
	p.queued++
	p.k.Schedule(interval, tick)
}
