package coherence

import (
	"fmt"

	"tilesim/internal/noc"
	"tilesim/internal/obs"
	"tilesim/internal/sim"
	"tilesim/internal/stats"
)

// SetTracer attaches a miss-lifecycle tracer: each sampled L1 miss
// becomes a complete-span event on its tile's track (allocation to
// MSHR completion). Must be set before the first access; nil (the
// default) keeps every hook a single pointer check.
func (p *Protocol) SetTracer(t *obs.Tracer) { p.tracer = t }

// MSHRLive returns the chip-wide count of live MSHR entries, the
// instantaneous residency the trace counter poller samples.
func (p *Protocol) MSHRLive() int {
	n := 0
	for _, l := range p.l1s {
		n += l.mshr.Len()
	}
	return n
}

// traceMiss emits the span of one completed, sampled miss on the
// issuing tile's core track. Callers guard on p.tracer != nil.
func (l *L1Controller) traceMiss(req noc.Type, block uint64, start sim.Time) {
	tr := l.p.tracer
	tr.SetTrackName(obs.PidCores, l.id, fmt.Sprintf("tile%02d", l.id))
	tr.Complete(obs.PidCores, l.id, req.String(), "miss",
		uint64(start), uint64(l.p.k.Now()-start), []obs.Arg{
			{Key: "block", Val: float64(block)},
		})
}

// RegisterMetrics declares the protocol's quantities in a registry
// under the "coh." prefix (DESIGN.md §10 naming): chip-wide sums of the
// L1 demand/traffic counters, the chip-wide MSHR-residency
// distribution, and per-tile miss latency and MSHR state. The epoch
// series samples the demand, miss and writeback counts and the live
// MSHRs and outstanding transactions at each window boundary.
func (p *Protocol) RegisterMetrics(r *obs.Registry) {
	s := r.Sampled()
	sum := func(pick func(*L1Controller) *stats.Counter) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, l := range p.l1s {
				t += pick(l).Value()
			}
			return t
		}
	}
	s.Counter("coh.l1.loads", sum(func(l *L1Controller) *stats.Counter { return &l.Loads }))
	s.Counter("coh.l1.stores", sum(func(l *L1Controller) *stats.Counter { return &l.Stores }))
	s.Counter("coh.l1.load_misses", sum(func(l *L1Controller) *stats.Counter { return &l.LoadMisses }))
	s.Counter("coh.l1.store_misses", sum(func(l *L1Controller) *stats.Counter { return &l.StoreMisses }))
	r.Counter("coh.l1.upgrades", sum(func(l *L1Controller) *stats.Counter { return &l.Upgrades }))
	s.Counter("coh.l1.writebacks", sum(func(l *L1Controller) *stats.Counter { return &l.Writebacks }))
	r.Counter("coh.l1.hints", sum(func(l *L1Controller) *stats.Counter { return &l.Hints }))
	r.Counter("coh.l1.interventions", sum(func(l *L1Controller) *stats.Counter { return &l.Interventions }))
	r.Counter("coh.l1.invalidations", sum(func(l *L1Controller) *stats.Counter { return &l.Invalidations }))
	r.Mean("coh.mshr.residency", &p.mshrResidency)
	s.Gauge("coh.mshr.live", func() float64 { return float64(p.MSHRLive()) })
	s.Gauge("coh.outstanding", func() float64 { return float64(p.OutstandingTransactions()) })
	for i, l := range p.l1s {
		prefix := fmt.Sprintf("coh.l1.%02d.", i)
		r.Mean(prefix+"miss_latency", &l.MissLatency)
		r.Mean(prefix+"mshr_residency", &l.MSHRResidency)
	}
}
