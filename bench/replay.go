package main

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"time"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
	"tilesim/internal/workload"
)

// maxRecorded caps the delivered-message recording the layer drivers
// replay.
const maxRecorded = 1 << 19

// recMsg is one network message as delivered, before the protocol
// consumed its header.
type recMsg struct {
	at              sim.Time
	addr            uint64
	src, dst        int32
	size, data      int16
	typ             noc.Type
	vl, pw, relaxed bool
}

func record(m *noc.Message, at sim.Time) recMsg {
	return recMsg{at: at, addr: m.Addr, src: int32(m.Src), dst: int32(m.Dst),
		size: int16(m.SizeBytes), data: int16(m.DataBytes), typ: m.Type,
		vl: m.VL, pw: m.PW, relaxed: m.Relaxed}
}

// wire rebuilds the message as the mesh carried it.
func (r recMsg) wire() noc.Message {
	m := r.protocol()
	m.SizeBytes, m.VL, m.PW = int(r.size), r.vl, r.pw
	return m
}

// protocol rebuilds the message as the protocol handed it to the
// message manager, before sizing, compression and plane mapping.
func (r recMsg) protocol() noc.Message {
	return noc.Message{Type: r.typ, Src: int(r.src), Dst: int(r.dst), Addr: r.addr,
		DataBytes: int(r.data), Relaxed: r.relaxed}
}

// validateRecording rejects recordings the mesh would refuse (a message
// to itself, one without a wire size, endpoints out of range), so a bad
// recording is an error here and not a panic inside mesh.Send.
func validateRecording(rec []recMsg, tiles int) error {
	for i, r := range rec {
		m := r.wire()
		if err := m.Validate(tiles); err != nil {
			return fmt.Errorf("recorded message %d: %w", i, err)
		}
	}
	return nil
}

// replaySystem builds a fresh system for cfg whose network delivers
// into a counter instead of the protocol, so replayed traffic exercises
// the manager, codec, fault injector and mesh of the real assembly.
func replaySystem(cfg cmp.RunConfig) (*cmp.System, *int, error) {
	sys, err := cmp.NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	delivered := new(int)
	for tile := 0; tile < sys.Net.Topology().Tiles(); tile++ {
		sys.Net.SetHandler(tile, func(*sim.Kernel, *noc.Message) { *delivered++ })
	}
	return sys, delivered, nil
}

// drain runs the replay kernel dry and checks every message arrived.
func drain(sys *cmp.System, delivered *int, want int) error {
	sys.K.Run(nil)
	if err := sys.Net.FaultError(); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if *delivered != want {
		return fmt.Errorf("replay: %d of %d messages delivered", *delivered, want)
	}
	return nil
}

// replayMesh injects the recorded messages with Network.Send, paced by
// their recorded delivery cycles, and times injection plus the kernel
// dispatch of every hop event. It returns ns per message and per hop.
func replayMesh(cfg cmp.RunConfig, rec []recMsg) (perMsg, perHop float64, err error) {
	sys, delivered, err := replaySystem(cfg)
	if err != nil {
		return 0, 0, err
	}
	topo := sys.Net.Topology()
	if err := validateRecording(rec, topo.Tiles()); err != nil {
		return 0, 0, err
	}
	msgs := make([]noc.Message, len(rec))
	hops := 0
	for i, r := range rec {
		msgs[i] = r.wire()
		hops += topo.Hops(topo.NodeOf(msgs[i].Src), topo.NodeOf(msgs[i].Dst))
	}
	start := time.Now()
	for i := range msgs {
		if rec[i].at > sys.K.Now() {
			sys.K.RunUntil(rec[i].at)
		}
		sys.Net.Send(&msgs[i])
	}
	if err := drain(sys, delivered, len(msgs)); err != nil {
		return 0, 0, err
	}
	ns := float64(time.Since(start))
	return ns / float64(max(len(msgs), 1)), ns / float64(max(hops, 1)), nil
}

// replayManager replays the recorded protocol messages through
// Manager.Send (sizing, compression, plane mapping and mesh injection)
// and returns ns per Send; the kernel time that carries the messages is
// not counted.
func replayManager(cfg cmp.RunConfig, rec []recMsg) (float64, error) {
	sys, delivered, err := replaySystem(cfg)
	if err != nil {
		return 0, err
	}
	if err := validateRecording(rec, sys.Net.Topology().Tiles()); err != nil {
		return 0, err
	}
	msgs := make([]noc.Message, len(rec))
	for i, r := range rec {
		msgs[i] = r.protocol()
	}
	var ns time.Duration
	for i := range msgs {
		if rec[i].at > sys.K.Now() {
			sys.K.RunUntil(rec[i].at)
		}
		t0 := time.Now()
		sys.Mgr.Send(&msgs[i])
		ns += time.Since(t0)
	}
	if err := drain(sys, delivered, len(msgs)); err != nil {
		return 0, err
	}
	return float64(ns) / float64(max(len(msgs), 1)), nil
}

// streamOf maps a compressible message type to its codec stream, as
// the message manager does.
func streamOf(t noc.Type) compress.Stream {
	switch t {
	case noc.Inv, noc.FwdGetS, noc.FwdGetX:
		return compress.CommandStream
	}
	return compress.RequestStream
}

// codecResult is the codec driver's outcome.
type codecResult struct {
	ops, hits int
	nsPerOp   float64
}

// replayCodec encodes and decodes the recorded compressible addresses
// with a fresh codec, checking each decode reproduces the address.
func replayCodec(cfg cmp.RunConfig, tiles int, rec []recMsg) (codecResult, error) {
	codec, err := cfg.Compression.Build(tiles)
	if err != nil {
		return codecResult{}, err
	}
	// The Perfect oracle decodes only the low-order bits it was sent.
	_, oracle := codec.(*compress.Perfect)
	type op struct {
		src, dst int
		stream   compress.Stream
		addr     uint64
	}
	var ops []op
	for _, r := range rec {
		if noc.Compressible(r.typ) {
			ops = append(ops, op{int(r.src), int(r.dst), streamOf(r.typ), r.addr})
		}
	}
	hits := 0
	bad := -1
	start := time.Now()
	for i, o := range ops {
		enc := codec.Encode(o.src, o.dst, o.stream, o.addr)
		if enc.Compressed {
			hits++
		}
		if dec := codec.Decode(o.src, o.dst, o.stream, enc); dec != o.addr && !oracle && bad < 0 {
			bad = i
		}
	}
	ns := float64(time.Since(start))
	if bad >= 0 {
		return codecResult{}, fmt.Errorf("codec %s decoded op %d (%#x) wrongly", codec.Name(), bad, ops[bad].addr)
	}
	return codecResult{ops: len(ops), hits: hits, nsPerOp: ns / float64(max(len(ops), 1))}, nil
}

// maxDrainRefs caps the references the generator driver drains, so the
// driver stays short on the longest workloads.
const maxDrainRefs = 1 << 21

// drainGenerator drains a fresh generator for the workload alone, cores
// round-robin, and returns ns and heap allocations per Next call.
func drainGenerator(cfg cmp.RunConfig, tiles int) (nsPerNext, allocsPerNext float64, err error) {
	refs := min(cfg.RefsPerCore, maxDrainRefs/tiles)
	gen, err := workload.NewNamedApp(cfg.App, tiles, refs, cfg.Seed)
	if err != nil {
		return 0, 0, err
	}
	done := make([]bool, tiles)
	live, calls := tiles, 0
	allocs0 := readRuntime().allocObjs
	start := time.Now()
	for live > 0 {
		for c := range done {
			if done[c] {
				continue
			}
			calls++
			if _, ok := gen.Next(c); !ok {
				done[c] = true
				live--
			}
		}
	}
	ns := float64(time.Since(start))
	allocs := readRuntime().allocObjs - allocs0
	return ns / float64(calls), float64(allocs) / float64(calls), nil
}

// kernelDriverEvents is the synthetic kernel program's length.
const kernelDriverEvents = 1 << 21

// driveKernel runs a synthetic Schedule/Step program, 64 concurrent
// self-rescheduling events with delays of 1-400 cycles like the
// protocol's, and returns ns per event.
func driveKernel(seed int64) float64 {
	k := sim.NewKernel()
	rng := rand.New(rand.NewSource(seed))
	delays := make([]sim.Time, 4096)
	for i := range delays {
		delays[i] = sim.Time(1 + rng.Intn(400))
	}
	fns := make([]sim.Event, 64)
	fired := 0
	for i := range fns {
		fns[i] = func() {
			fired++
			if fired+len(fns) <= kernelDriverEvents {
				k.Schedule(delays[fired%len(delays)], fns[i])
			}
		}
	}
	start := time.Now()
	for _, fn := range fns {
		k.Schedule(0, fn)
	}
	k.Run(nil)
	return float64(time.Since(start)) / float64(k.Processed())
}

// runtimeStats samples the Go runtime's cumulative GC and allocator
// counters.
type runtimeStats struct {
	gcCPUS     float64
	gcCycles   uint64
	allocObjs  uint64
	allocBytes uint64
	heapLive   uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	var out runtimeStats
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPUS = s[0].Value.Float64()
	}
	out.gcCycles, out.allocObjs, out.allocBytes, out.heapLive = u(1), u(2), u(3), u(4)
	return out
}
