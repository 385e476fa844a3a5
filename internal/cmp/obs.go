package cmp

import (
	"tilesim/internal/mesh"
	"tilesim/internal/obs"
	"tilesim/internal/sim"
)

// traceCounterInterval is the sampling period of the trace's counter
// tracks (plane occupancy, MSHR residency, in-flight messages), in
// cycles. 1024 cycles keeps even long runs to a few thousand counter
// events per track.
const traceCounterInterval = 1024

// Registry returns the system's metrics registry, assembling it on
// first use: kernel progress, the network's per-class/per-link
// metrics, the coherence protocol's cache and MSHR metrics, and the
// message manager's compression pipeline (DESIGN.md §10).
func (s *System) Registry() *obs.Registry {
	if s.registry == nil {
		r := obs.NewRegistry()
		r.Sampled().Counter("sim.events", s.K.Processed)
		r.Gauge("sim.cycles", func() float64 { return float64(s.K.Now()) })
		s.Net.RegisterMetrics(r)
		s.Proto.RegisterMetrics(r)
		s.Mgr.RegisterMetrics(r)
		s.registry = r
	}
	return s.registry
}

// SetTracer attaches a lifecycle tracer to every traced component.
// Must be called before Run; the tracer's document is finished by the
// caller (Close) after Run returns.
func (s *System) SetTracer(t *obs.Tracer) {
	s.tracer = t
	s.Net.SetTracer(t)
	s.Proto.SetTracer(t)
}

// startSeries builds the epoch series over the registry's sampled
// quantities (DESIGN.md §10) and schedules it as one of the run's
// pollers. Called from Run when SeriesInterval is positive; the sampler
// stops itself when the event queue drains, and — like every obs hook
// — only reads state, so attaching it never changes a simulated
// outcome. The last core to finish marks the series' end, and Run
// finishes it after the drain, flushing the final partial epoch.
func (s *System) startSeries(polls *obs.Pollers) *obs.SeriesData {
	s.series = obs.NewSeries(s.Registry(), sim.Time(s.cfg.SeriesInterval))
	return s.series.Start(polls)
}

// startCounterPoller samples the occupancy time series into the trace
// while the simulation runs, as one of the run's pollers. Called from
// Run when a tracer is attached; the poller stops itself when the
// event queue drains.
func (s *System) startCounterPoller(polls *obs.Pollers) {
	planes := []mesh.Plane{mesh.PlaneB, mesh.PlaneVL, mesh.PlanePW}
	var lastFlits [3]uint64
	polls.Poll(traceCounterInterval, func(now sim.Time) {
		var series []obs.Arg
		for i, p := range planes {
			if !s.Net.HasPlane(p) {
				continue
			}
			flits := s.Net.PlaneFlits(p)
			series = append(series, obs.Arg{Key: p.String(), Val: float64(flits - lastFlits[i])})
			lastFlits[i] = flits
		}
		s.tracer.Counter(obs.PidLinks, "plane flit-cycles", uint64(now), series)
		s.tracer.Counter(obs.PidCores, "mshr", uint64(now), []obs.Arg{
			{Key: "live", Val: float64(s.Proto.MSHRLive())},
		})
		s.tracer.Counter(obs.PidLinks, "net inflight", uint64(now), []obs.Arg{
			{Key: "messages", Val: float64(s.Net.InFlight())},
		})
	})
}
