// Package cmp assembles the full tiled-CMP simulator: in-order cores
// driven by workload generators, per-tile L1s and L2 slices under the
// directory MESI protocol, the paper's message-management layer
// (compression + plane mapping), the 4x4 mesh, and energy metering
// (paper Section 4.1, Table 4).
package cmp

import (
	"fmt"

	"tilesim/internal/coherence"
	"tilesim/internal/compress"
	"tilesim/internal/core"
	"tilesim/internal/energy"
	"tilesim/internal/fault"
	"tilesim/internal/mesh"
	"tilesim/internal/noc"
	"tilesim/internal/obs"
	"tilesim/internal/sim"
	"tilesim/internal/workload"
)

// RunConfig selects one (application x interconnect configuration)
// simulation.
type RunConfig struct {
	// App is a paper application name (workload.AppNames).
	App string
	// RefsPerCore scales the run length.
	RefsPerCore int
	// WarmupRefs references per core run before measurement starts
	// (caches and compression structures warm; statistics and the
	// execution-time window reset at the warmup barrier). 0 measures
	// from cold.
	WarmupRefs int
	// Seed fixes the workload randomness.
	Seed int64
	// Topology selects the interconnect graph: "mesh" (the paper's
	// dense 2D mesh, the default), "cmesh" (concentrated mesh, 4 tiles
	// per router), "torus" (2D torus with wraparound links) or "slim"
	// (flattened-butterfly low-diameter network). See DESIGN.md §14.
	Topology string
	// Tiles is the tile (core) count; 0 means the paper's 16. Must be a
	// power of two (page-interleaved homes) within each topology's
	// geometric constraints — BuildTopology validates and returns a
	// descriptive error at config-decode time.
	Tiles int
	// Compression selects the address-compression scheme.
	Compression compress.Spec
	// Heterogeneous enables the proposal's VL+B link layout; false is
	// the 75-byte B-Wire baseline. (Shorthand for Wiring "vlb".)
	Heterogeneous bool
	// Wiring selects the link layout explicitly, overriding
	// Heterogeneous when set:
	//   "baseline" - 75-byte B-Wires (the paper's baseline)
	//   "vlb"      - VL-Wires + 34-byte B-Wires (the paper's proposal)
	//   "lpw"      - 11-byte L-Wires + 62-byte PW-Wires (Cheng-style)
	//   "vlbpw"    - VL + 20-byte B + 30-byte PW (the combined design
	//                the paper sketches as future work)
	// mesh.Layout builds each, its VL-Wires as wide as the scheme's
	// compressed messages, and the layouts with a PW plane run Reply
	// Partitioning (mesh.ReplyPartitioning).
	Wiring string
	// RouterLatency overrides the router pipeline depth (0 keeps the
	// layout default of 2); LinkCyclesScale scales wire traversal
	// latencies (0 keeps 1.0). Sensitivity-ablation knobs: NewSystem
	// rejects a negative latency and a negative or non-finite scale, or
	// one that puts a wire latency above 2^62 cycles.
	RouterLatency   int
	LinkCyclesScale float64
	// SeriesInterval, when positive, samples an epoch series every that
	// many simulated cycles (DESIGN.md §10.3): per-window readings of
	// the registry's sampled quantities land in Result.Series. 0 (the
	// default) disables sampling and preserves pre-series behavior and
	// cache keys. Sampling reads state only — it never feeds back into the
	// simulation — but the series rides in the Result, so the interval
	// is part of the canonical encoding.
	SeriesInterval int
	// Generator, when non-nil, drives the cores instead of the named
	// App (e.g. a replayed trace). App is then only a label, and
	// RefsPerCore/WarmupRefs apply to the generator's stream.
	Generator workload.Generator
	// Faults configures deterministic fault injection (DESIGN.md §11);
	// the zero value disables it. Fault randomness is keyed by Seed, so
	// same-seed runs stay byte-identical.
	Faults fault.Config
}

// wiring normalizes the layout selection.
func (c RunConfig) wiring() string {
	if c.Wiring != "" {
		return c.Wiring
	}
	if c.Heterogeneous {
		return "vlb"
	}
	return "baseline"
}

// Label names the configuration the way the paper's figures do.
func (c RunConfig) Label() string {
	switch c.wiring() {
	case "baseline":
		return "baseline"
	case "lpw":
		return "reply partitioning (L+PW)"
	case "vlbpw":
		return c.Compression.Label() + " +RP (VL+B+PW)"
	}
	return c.Compression.Label()
}

// Result captures everything the experiment harnesses report.
type Result struct {
	App    string
	Config string

	// ExecCycles is the parallel-phase execution time.
	ExecCycles uint64
	// Coverage is the compressed fraction of compressible messages.
	Coverage float64
	// VLFraction is the share of remote messages on the low-latency
	// wires; PWFraction on the power-optimized wires (RP layouts).
	VLFraction float64
	PWFraction float64

	Net mesh.Summary

	// Failovers counts critical messages steered off an out VL plane to
	// the bulk plane uncompressed (zero without fault injection; the
	// link-level fault counters ride along in Net).
	Failovers uint64

	// Link is the inter-router link energy (Figure 6 bottom subject).
	Link energy.LinkReport
	// InterconnectJ is links + routers (Figure 7 input).
	InterconnectJ energy.Joules
	// ComprEvents counts compression-hardware activations.
	ComprEvents uint64
	// Table1Scheme is the hardware-cost row for Figure 7 ("" if none).
	Table1Scheme string

	// Memory-system aggregates.
	Loads, Stores   uint64
	L1Misses        uint64
	MeanMissLatency float64
	LocalMessages   uint64

	// Network latency percentiles for request messages (full run, not
	// window-scoped: percentile sketches do not subtract).
	RequestLatencyP50 float64
	RequestLatencyP99 float64

	// Metrics is the full observability snapshot at end of run
	// (internal/obs): per-link utilization, latency breakdowns, MSHR
	// residency, compression pipeline. Deterministic for a fixed
	// config+seed; rides along in cached sweep results.
	Metrics obs.Snapshot

	// Series is the epoch time series sampled every
	// RunConfig.SeriesInterval cycles (nil when the interval is 0).
	// Deterministic for a fixed config+seed; rides along in cached
	// sweep results.
	Series *obs.SeriesData
}

// LinkED2P returns the link energy-delay^2 product.
func (r Result) LinkED2P() float64 {
	return energy.ED2P(r.Link.TotalJ(), r.ExecCycles)
}

// System is an assembled CMP ready to run.
type System struct {
	K     *sim.Kernel
	Net   *mesh.Network
	Proto *coherence.Protocol
	Mgr   *core.Manager
	Meter *energy.Meter

	cfg   RunConfig
	cores []*Core
	bar   *barrier
	warm  *barrier

	// prefetch serves the named App's streams (nil with a caller's
	// Generator). Its producer starts on the first Next in Run and has
	// exited when Run returns.
	prefetch *workload.Prefetch

	registry *obs.Registry
	tracer   *obs.Tracer
	series   *obs.Series // nil without a series sink
	running  int         // cores that have not finished

	warmCycles sim.Time
	warmDyn    energy.DynSnapshot
	warmNet    mesh.Summary
	warmMgr    mgrSnapshot
	warmL1     l1Snapshot
}

// mgrSnapshot captures the message manager's monotone counters.
type mgrSnapshot struct {
	compressible, compressed, local, saved uint64
	vl, b, pw                              uint64
	failover                               uint64
}

// l1Snapshot captures the chip-wide L1 counters.
type l1Snapshot struct {
	loads, stores, misses uint64
	missLatSum            float64
	missLatN              uint64
}

func (s *System) snapMgr() mgrSnapshot {
	return mgrSnapshot{
		compressible: s.Mgr.Compressible.Value(),
		compressed:   s.Mgr.Compressed.Value(),
		local:        s.Mgr.LocalMsgs.Value(),
		saved:        s.Mgr.SavedBytes.Value(),
		vl:           s.Mgr.VLMessages.Value(),
		b:            s.Mgr.BMessages.Value(),
		pw:           s.Mgr.PWMessages.Value(),
		failover:     s.Mgr.FailoverMsgs.Value(),
	}
}

func (s *System) snapL1() l1Snapshot {
	var out l1Snapshot
	for i := 0; i < s.cfg.tiles(); i++ {
		l1 := s.Proto.L1(i)
		out.loads += l1.Loads.Value()
		out.stores += l1.Stores.Value()
		out.misses += l1.LoadMisses.Value() + l1.StoreMisses.Value()
		out.missLatSum += l1.MissLatency.Sum()
		out.missLatN += l1.MissLatency.N()
	}
	return out
}

// takeWarmupSnapshot marks the measurement-window start.
func (s *System) takeWarmupSnapshot() {
	s.warmCycles = s.K.Now()
	s.warmDyn = s.Meter.Snapshot()
	s.warmNet = s.Net.Summary()
	s.warmMgr = s.snapMgr()
	s.warmL1 = s.snapL1()
}

// buildCodec is the one codec construction per NewSystem; a variable so
// tests can count the calls.
var buildCodec = compress.Spec.Build

// NewSystem builds the simulator for a configuration.
func NewSystem(cfg RunConfig) (*System, error) {
	if cfg.RefsPerCore <= 0 {
		return nil, fmt.Errorf("cmp: RefsPerCore must be positive")
	}
	if cfg.WarmupRefs < 0 || cfg.WarmupRefs >= cfg.RefsPerCore {
		// A warmup of RefsPerCore or more leaves no reference to measure
		// (each core reaches the warmup barrier after its last one); a
		// negative one never reaches the barrier.
		return nil, fmt.Errorf("cmp: WarmupRefs %d must be in [0, RefsPerCore) with RefsPerCore %d",
			cfg.WarmupRefs, cfg.RefsPerCore)
	}
	if cfg.SeriesInterval < 0 {
		return nil, fmt.Errorf("cmp: SeriesInterval must be non-negative, got %d", cfg.SeriesInterval)
	}
	topo, err := cfg.BuildTopology()
	if err != nil {
		return nil, err
	}
	tiles := topo.Tiles()
	// A caller's generator is used as given; the App built here is
	// served through rings that a producer goroutine fills ahead of
	// the simulation once Run starts.
	gen := cfg.Generator
	var prefetch *workload.Prefetch
	if gen == nil {
		app, err := workload.NewNamedApp(cfg.App, tiles, cfg.RefsPerCore, cfg.Seed)
		if err != nil {
			return nil, err
		}
		prefetch = workload.NewPrefetch(app)
		gen = prefetch
	}
	// The layout is checked before the codec is built: a DBRC's state
	// grows with the square of the tile count.
	payload, err := cfg.Compression.CompressedPayloadBytes()
	if err != nil {
		return nil, err
	}
	netCfg, err := mesh.Layout(cfg.wiring(), payload)
	if err != nil {
		return nil, fmt.Errorf("cmp: scheme %s: %w", cfg.Compression.Kind, err)
	}
	codec, err := buildCodec(cfg.Compression, tiles)
	if err != nil {
		return nil, err
	}
	// Zero keeps the layout's value; anything else, a negative router
	// latency or a non-finite scale included, goes to the network's
	// validation.
	if cfg.RouterLatency != 0 {
		netCfg.RouterLatency = cfg.RouterLatency
	}
	if cfg.LinkCyclesScale != 0 {
		netCfg.LinkCyclesScale = cfg.LinkCyclesScale
	}
	netCfg.Topo = topo
	if err := netCfg.Validate(); err != nil {
		return nil, fmt.Errorf("cmp: network: %w", err)
	}

	k := sim.NewKernel()
	meter := energy.NewMeter(topo.Nodes())
	net := mesh.New(k, netCfg, meter)
	for _, sw := range net.StaticWires() {
		meter.AddStaticWires(sw.Kind, sw.Wires)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, fmt.Errorf("cmp: %w", err)
	}
	if cfg.Faults.Enabled() {
		inj, err := fault.NewInjector(cfg.Faults, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("cmp: %w", err)
		}
		net.SetInjector(inj)
	}

	sys := &System{K: k, Net: net, Meter: meter, cfg: cfg, prefetch: prefetch}
	// The protocol sends through the manager; the manager delivers back
	// into the protocol.
	cohCfg := coherence.DefaultConfig()
	cohCfg.Tiles = tiles
	cohCfg.ReplyPartitioning = mesh.ReplyPartitioning(cfg.wiring())
	sys.Proto = coherence.New(k, cohCfg, func(m noc.Message) { sys.Mgr.Send(&m) })
	sys.Mgr = core.New(k, net, codec, meter, func(m *noc.Message) { sys.Proto.Deliver(m) })

	sys.bar = newBarrier(tiles)
	sys.warm = newBarrier(tiles)
	sys.warm.onAll = sys.takeWarmupSnapshot
	sys.cores = make([]*Core, tiles)
	for i := 0; i < tiles; i++ {
		sys.cores[i] = newCore(i, sys, gen)
	}
	return sys, nil
}

// Run executes the parallel phase to completion and returns the result.
func (s *System) Run() (Result, error) {
	if s.prefetch != nil {
		defer s.prefetch.Stop()
	}
	s.running = len(s.cores)
	for _, c := range s.cores {
		c.start()
	}
	// The trace's counter poller and the series sampler share one
	// poller set, so neither mistakes the other's ticks for work. A
	// run with neither sink builds no set.
	var polls *obs.Pollers
	if s.tracer != nil || s.cfg.SeriesInterval > 0 {
		polls = obs.NewPollers(s.K)
	}
	if s.tracer != nil {
		s.startCounterPoller(polls)
	}
	var seriesData *obs.SeriesData
	if s.cfg.SeriesInterval > 0 {
		seriesData = s.startSeries(polls)
	}
	s.K.Run(nil)

	// A retry-budget exhaustion drops a protocol message, so the cores
	// above it can never finish: surface the explicit fault error, not
	// the secondary deadlock diagnosis.
	if err := s.Net.FaultError(); err != nil {
		return Result{}, fmt.Errorf("cmp: fault injection: %w", err)
	}

	var execCycles sim.Time
	for _, c := range s.cores {
		if !c.done {
			return Result{}, fmt.Errorf("cmp: core %d did not finish (deadlock?)", c.id)
		}
		if c.finishedAt > execCycles {
			execCycles = c.finishedAt
		}
	}
	if s.Net.InFlight() != 0 || s.Proto.OutstandingTransactions() != 0 {
		return Result{}, fmt.Errorf("cmp: %d messages / %d transactions outstanding after drain",
			s.Net.InFlight(), s.Proto.OutstandingTransactions())
	}
	if s.series != nil {
		// Close the epoch table at the execution window's end, which
		// the last core marked: flush the final partial epoch, drain
		// included, so counter columns sum to the run's snapshot totals.
		s.series.Finish()
	}

	// Everything below reports the measurement window: the run minus
	// the warmup prefix (warmCycles and the warm* snapshots are zero
	// when WarmupRefs is 0).
	window := uint64(execCycles - s.warmCycles)
	mgrNow := s.snapMgr()
	l1Now := s.snapL1()
	r := Result{
		App:           s.cfg.App,
		Config:        s.cfg.Label(),
		ExecCycles:    window,
		Net:           s.Net.Summary().Sub(s.warmNet),
		Link:          s.Meter.LinkSince(s.warmDyn, window),
		InterconnectJ: s.Meter.InterconnectSince(s.warmDyn, window),
		ComprEvents:   s.Meter.ComprEvents() - s.warmDyn.ComprEvents,
		Table1Scheme:  s.cfg.Compression.Table1Scheme(),
		LocalMessages: mgrNow.local - s.warmMgr.local,
		Failovers:     mgrNow.failover - s.warmMgr.failover,
		Loads:         l1Now.loads - s.warmL1.loads,
		Stores:        l1Now.stores - s.warmL1.stores,
		L1Misses:      l1Now.misses - s.warmL1.misses,
	}
	if compressible := mgrNow.compressible - s.warmMgr.compressible; compressible > 0 {
		r.Coverage = float64(mgrNow.compressed-s.warmMgr.compressed) / float64(compressible)
	}
	if remote := (mgrNow.vl - s.warmMgr.vl) + (mgrNow.b - s.warmMgr.b) + (mgrNow.pw - s.warmMgr.pw); remote > 0 {
		r.VLFraction = float64(mgrNow.vl-s.warmMgr.vl) / float64(remote)
		r.PWFraction = float64(mgrNow.pw-s.warmMgr.pw) / float64(remote)
	}
	if n := l1Now.missLatN - s.warmL1.missLatN; n > 0 {
		r.MeanMissLatency = (l1Now.missLatSum - s.warmL1.missLatSum) / float64(n)
	}
	r.RequestLatencyP50 = s.Net.LatencyPercentile(noc.ClassRequest, 0.50)
	r.RequestLatencyP99 = s.Net.LatencyPercentile(noc.ClassRequest, 0.99)
	r.Metrics = s.Registry().Snapshot(s.K.Now())
	r.Series = seriesData
	return r, nil
}

// Run builds and runs a configuration in one call.
func Run(cfg RunConfig) (Result, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	return sys.Run()
}
