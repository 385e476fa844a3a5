package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/fault"
)

// workloadDef is one fixed benchmark input: a configuration simulated to
// completion. Each is chosen to stress a different simulator layer;
// README.md records why.
type workloadDef struct {
	name string
	cfg  cmp.RunConfig // Seed is set per run
	// setups is how many times one repetition times cmp.NewSystem;
	// setup_s is their median. Small systems build in under a
	// millisecond, so they need several samples to give a steady median.
	setups int
}

var dbrc4x2 = compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}

// workloads lists the benchmark's inputs. Sizes keep one repetition
// under about a second on a 2-core host, so a run holds dozens of them
// and the host reference is timed close to each simulation.
var workloads = []workloadDef{
	{
		name:   "mp3d-vlb",
		cfg:    cmp.RunConfig{App: "MP3D", RefsPerCore: 10000, WarmupRefs: 1000, Compression: dbrc4x2, Heterogeneous: true},
		setups: 5,
	},
	{
		name:   "water-base",
		cfg:    cmp.RunConfig{App: "Water-nsq", RefsPerCore: 80000, WarmupRefs: 8000, Compression: compress.Spec{Kind: "none"}},
		setups: 5,
	},
	{
		name: "radix-stride-ber",
		cfg: cmp.RunConfig{App: "Radix", RefsPerCore: 8000, WarmupRefs: 800,
			Compression: compress.Spec{Kind: "stride", LowOrderBytes: 2}, Heterogeneous: true,
			Faults: fault.Config{BER: 1e-5, VLBERScale: 4}},
		setups: 5,
	},
	{
		name: "fft-torus1024",
		cfg: cmp.RunConfig{App: "FFT", RefsPerCore: 40, WarmupRefs: 10, Topology: "torus", Tiles: 1024,
			Compression: dbrc4x2, Heterogeneous: true},
		setups: 1,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// metricDef describes one reported metric. Bound is the share of the
// base median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// value reads an end-to-end metric off one repetition.
	value func(rep) float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off; host times are scaled to the quiet reference host.
// BENCHMARK.json must list the same names, units, directions and bounds
// (TestBenchmarkJSONMatchesTables).
var endToEnd = []metricDef{
	{"sim_refs_per_s", "refs/s", "higher", 0.25, func(r rep) float64 { return float64(r.Refs) / r.scaled(r.RunS) }},
	{"wall_s", "s", "lower", 0.25, func(r rep) float64 { return r.scaled(r.WallS) }},
	{"setup_s", "s", "lower", 0.25, func(r rep) float64 { return r.scaled(r.SetupS) }},
	{"peak_rss_mb", "MB", "lower", 0.10, func(r rep) float64 { return r.PeakRSSMB }},
}

// perLayer are the traced pass's metrics, one group per simulator
// layer; layerMetrics computes them.
var perLayer = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_ref", Unit: "events/ref", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "sim.driver_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "workload.next_calls", Unit: "count", Better: "lower"},
	{Name: "workload.next_self_ns", Unit: "ns/call", Better: "lower"},
	{Name: "workload.next_share", Unit: "ratio", Better: "lower"},
	{Name: "workload.driver_ns_per_next", Unit: "ns/call", Better: "lower"},
	{Name: "workload.driver_allocs_per_next", Unit: "allocs/call", Better: "lower"},
	{Name: "coherence.delivers", Unit: "count", Better: "lower"},
	{Name: "coherence.deliver_self_ns", Unit: "ns/call", Better: "lower"},
	{Name: "coherence.deliver_share", Unit: "ratio", Better: "lower"},
	{Name: "coherence.l1_misses", Unit: "count", Better: "lower"},
	{Name: "core.driver_ns_per_send", Unit: "ns/msg", Better: "lower"},
	{Name: "core.coverage", Unit: "ratio", Better: "higher"},
	{Name: "core.vl_fraction", Unit: "ratio", Better: "higher"},
	{Name: "compress.ops", Unit: "count", Better: "lower"},
	{Name: "compress.driver_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "compress.replay_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "mesh.msgs", Unit: "count", Better: "lower"},
	{Name: "mesh.hops", Unit: "count", Better: "lower"},
	{Name: "mesh.flits", Unit: "count", Better: "lower"},
	{Name: "mesh.retries", Unit: "count", Better: "lower"},
	{Name: "mesh.retry_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mesh.driver_ns_per_hop", Unit: "ns/hop", Better: "lower"},
	{Name: "mesh.driver_ns_per_msg", Unit: "ns/msg", Better: "lower"},
	{Name: "cmp.run_other_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_objs", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
}

// layerMetrics derives the per-layer metrics from an untraced and a
// traced repetition of the same workload and seed. Host times come from
// the untraced run where it has them; shares are of the traced run's
// wall time, which the spans partition.
func layerMetrics(u, t rep) map[string]float64 {
	tr := t.Trace
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tracedNS := t.RunS * 1e9
	return map[string]float64{
		"sim.events":              float64(u.Events),
		"sim.events_per_ref":      div(float64(u.Events), float64(u.Refs)),
		"sim.ns_per_event":        div(u.RunS*1e9, float64(u.Events)),
		"sim.driver_ns_per_event": tr.KernelNSPerEvent,

		"workload.next_calls":             float64(tr.NextCalls),
		"workload.next_self_ns":           div(float64(tr.NextSelfNS), float64(tr.NextCalls)),
		"workload.next_share":             div(float64(tr.NextSelfNS), tracedNS),
		"workload.driver_ns_per_next":     tr.NextNSPerCall,
		"workload.driver_allocs_per_next": tr.AllocsPerNext,

		"coherence.delivers":        float64(tr.DeliverCalls),
		"coherence.deliver_self_ns": div(float64(tr.DeliverSelfNS), float64(tr.DeliverCalls)),
		"coherence.deliver_share":   div(float64(tr.DeliverSelfNS), tracedNS),
		"coherence.l1_misses":       float64(tr.L1Misses),

		"core.driver_ns_per_send": tr.SendNS,
		"core.coverage":           t.Coverage,
		"core.vl_fraction":        t.VLFraction,

		"compress.ops":              float64(tr.CodecOps),
		"compress.driver_ns_per_op": tr.CodecNSPerOp,
		"compress.replay_hit_rate":  div(float64(tr.CodecHits), float64(tr.CodecOps)),

		"mesh.msgs":              float64(tr.Msgs),
		"mesh.hops":              float64(tr.Hops),
		"mesh.flits":             float64(tr.Flits),
		"mesh.retries":           float64(tr.Retries),
		"mesh.retry_ratio":       div(float64(tr.Retries), float64(tr.Msgs)),
		"mesh.driver_ns_per_hop": tr.MeshNSPerHop,
		"mesh.driver_ns_per_msg": tr.MeshNSPerMsg,

		"cmp.run_other_share": div(tracedNS-float64(tr.SpannedNS), tracedNS),

		"runtime.gc_cpu_s":     u.GCCPUS,
		"runtime.gc_cycles":    float64(u.GCCycles),
		"runtime.alloc_objs":   float64(u.AllocObjs),
		"runtime.alloc_mb":     u.AllocMB,
		"runtime.heap_live_mb": u.HeapLiveMB,

		"bench.trace_overhead": div(t.RunS, u.RunS),
	}
}

// pinnedSeed is the seed whose simulated results pinned.json records.
const pinnedSeed = 1

// pinnedResult is a workload's simulated outcome at pinnedSeed. Every
// performance change must keep it byte-identical, so a mismatch is a
// failed operation, not a metric.
type pinnedResult struct {
	Digest     string  `json:"digest"`
	ExecCycles uint64  `json:"exec_cycles"`
	Coverage   float64 `json:"coverage"`
	VLFraction float64 `json:"vl_fraction"`
}

//go:embed pinned.json
var pinnedJSON []byte

func loadPinned() (map[string]pinnedResult, error) {
	var p map[string]pinnedResult
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("parse pinned.json: %w", err)
	}
	return p, nil
}
