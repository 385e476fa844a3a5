package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"tilesim/internal/cmp"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
	"tilesim/internal/sweep"
	"tilesim/internal/workload"
)

// rep is one repetition: a workload built and simulated to completion
// in a fresh process. Children print it as their last stdout line.
type rep struct {
	// Simulated results: identical for a given workload and seed.
	Digest     string  `json:"digest"`
	ExecCycles uint64  `json:"exec_cycles"`
	Coverage   float64 `json:"coverage"`
	VLFraction float64 `json:"vl_fraction"`
	// Refs is every reference the cores issued, warmup included; Events
	// is every kernel event dispatched.
	Refs   uint64 `json:"refs"`
	Events uint64 `json:"events"`

	// Host cost, in seconds unless named otherwise, as measured: the
	// end-to-end metrics scale them by the host reference (scaled).
	SetupS     float64 `json:"setup_s"` // median of the repetition's NewSystem timings
	RunS       float64 `json:"run_s"`
	WallS      float64 `json:"wall_s"` // first NewSystem + Run
	RefS       float64 `json:"ref_s"`  // the host reference, mean of its runs before and after
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	GCCPUS     float64 `json:"gc_cpu_s"`
	GCCycles   uint64  `json:"gc_cycles"`
	AllocObjs  uint64  `json:"alloc_objs"`
	AllocMB    float64 `json:"alloc_mb"`
	HeapLiveMB float64 `json:"heap_live_mb"`

	Trace *traceResult `json:"trace,omitempty"`
}

// traceResult is what a traced repetition adds: span aggregates, layer
// counters over the whole run, and the layer drivers' timings.
type traceResult struct {
	NextCalls     uint64 `json:"next_calls"`
	NextSelfNS    int64  `json:"next_self_ns"`
	DeliverCalls  uint64 `json:"deliver_calls"`
	DeliverSelfNS int64  `json:"deliver_self_ns"`
	// SpannedNS is the Run wall time covered by top-level spans.
	SpannedNS int64 `json:"spanned_ns"`

	L1Misses uint64 `json:"l1_misses"`
	Msgs     uint64 `json:"msgs"`
	Hops     uint64 `json:"hops"`
	Flits    uint64 `json:"flits"`
	Retries  uint64 `json:"retries"`

	KernelNSPerEvent float64 `json:"kernel_ns_per_event"`
	NextNSPerCall    float64 `json:"next_ns_per_call"`
	AllocsPerNext    float64 `json:"allocs_per_next"`
	SendNS           float64 `json:"send_ns"`
	CodecOps         int     `json:"codec_ops"`
	CodecHits        int     `json:"codec_hits"`
	CodecNSPerOp     float64 `json:"codec_ns_per_op"`
	MeshNSPerMsg     float64 `json:"mesh_ns_per_msg"`
	MeshNSPerHop     float64 `json:"mesh_ns_per_hop"`

	TraceFile string `json:"trace_file,omitempty"`
}

const mb = 1 << 20

func tilesOf(cfg cmp.RunConfig) (int, error) {
	topo, err := cfg.BuildTopology()
	if err != nil {
		return 0, err
	}
	return topo.Tiles(), nil
}

// simulated fills a repetition's simulated results.
func simulated(cfg cmp.RunConfig, sys *cmp.System, res cmp.Result) rep {
	return rep{
		Digest:     sweep.Digest(res),
		ExecCycles: res.ExecCycles,
		Coverage:   res.Coverage,
		VLFraction: res.VLFraction,
		Refs:       uint64(sys.Net.Topology().Tiles()) * uint64(cfg.RefsPerCore),
		Events:     sys.K.Processed(),
	}
}

// scaled converts host seconds measured in r to seconds on the quiet
// reference host (hostref.go).
func (r rep) scaled(s float64) float64 {
	if r.RefS <= 0 {
		return s
	}
	return s * refNominalS / r.RefS
}

// untracedRep builds and runs cfg with nothing attached and measures
// the host cost, between two runs of the host reference. After the run
// it builds the system setups-1 more times, each from a collected heap,
// for a steadier setup_s.
func untracedRep(cfg cmp.RunConfig, setups int) (rep, error) {
	ref := newRefProgram()
	ref.run(refSteps / 4) // warm-up: page faults and caches
	refBefore := ref.seconds()
	runtime.GC()
	rt0 := readRuntime()
	t0 := time.Now()
	sys, err := cmp.NewSystem(cfg)
	if err != nil {
		return rep{}, err
	}
	t1 := time.Now()
	res, err := sys.Run()
	t2 := time.Now()
	if err != nil {
		return rep{}, err
	}
	rt1 := readRuntime()
	refAfter := ref.seconds()
	r := simulated(cfg, sys, res)
	r.RunS, r.WallS = t2.Sub(t1).Seconds(), t2.Sub(t0).Seconds()
	r.RefS = (refBefore + refAfter) / 2
	r.PeakRSSMB = peakRSSMB()
	r.GCCPUS = rt1.gcCPUS - rt0.gcCPUS
	r.GCCycles = rt1.gcCycles - rt0.gcCycles
	r.AllocObjs = rt1.allocObjs - rt0.allocObjs
	r.AllocMB = float64(rt1.allocBytes-rt0.allocBytes) / mb
	runtime.GC()
	r.HeapLiveMB = float64(readRuntime().heapLive) / mb
	runtime.KeepAlive(sys)

	times := []float64{t1.Sub(t0).Seconds()}
	for len(times) < setups {
		runtime.GC()
		s0 := time.Now()
		if _, err := cmp.NewSystem(cfg); err != nil {
			return rep{}, err
		}
		times = append(times, time.Since(s0).Seconds())
	}
	r.SetupS = median(times)
	return r, nil
}

// tracedRun is a traced repetition before the layer drivers run.
type tracedRun struct {
	rep
	tr  *tracer
	rec []recMsg
}

// tracedRep runs cfg with spans around the two layer entry points the
// benchmark can reach from outside: the workload generator's Next (a
// wrapping RunConfig.Generator) and the protocol's Deliver (a network
// handler that calls it as the message manager's handler would). The
// handler also records the first maxRecorded delivered messages.
func tracedRep(cfg cmp.RunConfig) (tracedRun, error) {
	tiles, err := tilesOf(cfg)
	if err != nil {
		return tracedRun{}, err
	}
	gen, err := workload.NewNamedApp(cfg.App, tiles, cfg.RefsPerCore, cfg.Seed)
	if err != nil {
		return tracedRun{}, err
	}
	tr := newTracer()
	tcfg := cfg
	tcfg.Generator = &tracedGen{inner: gen, tr: tr}
	sys, err := cmp.NewSystem(tcfg)
	if err != nil {
		return tracedRun{}, err
	}
	pairs := make([]uint64, tiles*tiles)
	rec := make([]recMsg, 0, maxRecorded)
	for tile := 0; tile < tiles; tile++ {
		sys.Net.SetHandler(tile, func(k *sim.Kernel, m *noc.Message) {
			pairs[m.Src*tiles+m.Dst]++
			if len(rec) < maxRecorded {
				rec = append(rec, record(m, k.Now()))
			}
			tr.begin(spanDeliver)
			sys.Proto.Deliver(m)
			tr.end()
		})
	}
	t0 := time.Now()
	res, err := sys.Run()
	runS := time.Since(t0).Seconds()
	if err != nil {
		return tracedRun{}, err
	}
	r := simulated(cfg, sys, res)
	r.RunS = runS
	topo := sys.Net.Topology()
	var hops uint64
	for i, n := range pairs {
		if n > 0 {
			hops += n * uint64(topo.Hops(topo.NodeOf(i/tiles), topo.NodeOf(i%tiles)))
		}
	}
	var misses uint64
	for i := 0; i < tiles; i++ {
		l1 := sys.Proto.L1(i)
		misses += l1.LoadMisses.Value() + l1.StoreMisses.Value()
	}
	sum := sys.Net.Summary()
	r.Trace = &traceResult{
		NextCalls: tr.calls[spanNext], NextSelfNS: tr.self[spanNext],
		DeliverCalls: tr.calls[spanDeliver], DeliverSelfNS: tr.self[spanDeliver],
		SpannedNS: tr.top,
		L1Misses:  misses, Msgs: sum.TotalMessages(), Hops: hops, Flits: sum.TotalFlits, Retries: sum.Retries,
	}
	return tracedRun{rep: r, tr: tr, rec: rec}, nil
}

// runDrivers replays the recording into each layer's public API on
// fresh components and times the layer alone.
func runDrivers(cfg cmp.RunConfig, rec []recMsg, t *traceResult) error {
	tiles, err := tilesOf(cfg)
	if err != nil {
		return err
	}
	t.KernelNSPerEvent = driveKernel(cfg.Seed)
	if t.NextNSPerCall, t.AllocsPerNext, err = drainGenerator(cfg, tiles); err != nil {
		return fmt.Errorf("generator driver: %w", err)
	}
	codec, err := replayCodec(cfg, tiles, rec)
	if err != nil {
		return fmt.Errorf("codec driver: %w", err)
	}
	t.CodecOps, t.CodecHits, t.CodecNSPerOp = codec.ops, codec.hits, codec.nsPerOp
	runtime.GC()
	if t.SendNS, err = replayManager(cfg, rec); err != nil {
		return fmt.Errorf("manager driver: %w", err)
	}
	runtime.GC()
	if t.MeshNSPerMsg, t.MeshNSPerHop, err = replayMesh(cfg, rec); err != nil {
		return fmt.Errorf("mesh driver: %w", err)
	}
	return nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// traceDir holds the sampled span traces, inside the build directory
// the benchmark's wrapper script uses.
const traceDir = ".bench_build"

// childMain runs one repetition in this process and prints it as JSON.
func childMain(name string, seed int64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	cfg := w.cfg
	cfg.Seed = seed
	var r rep
	if !traced {
		if r, err = untracedRep(cfg, w.setups); err != nil {
			return err
		}
	} else {
		run, err := tracedRep(cfg)
		if err != nil {
			return err
		}
		r = run.rep
		r.Trace.TraceFile = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.trace.json", name, seed))
		if err := run.tr.writeChromeTrace(r.Trace.TraceFile); err != nil {
			return err
		}
		if err := runDrivers(cfg, run.rec, r.Trace); err != nil {
			return err
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// childTimeout bounds one repetition, so a hung child cannot stall the
// benchmark past its time limit.
const childTimeout = 150 * time.Second

// spawnRep runs one repetition of a workload in a fresh process of the
// benchmark binary bin.
func spawnRep(bin, name string, seed int64, traced bool) (rep, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, bin, "-child", name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("%s repetition: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var r rep
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return rep{}, fmt.Errorf("%s repetition: bad output: %w", name, err)
	}
	return r, nil
}
