package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// streams drains a fresh App: every core's ops, in order.
func streams(t *testing.T, name string, cores, refs int, seed int64) [][]Op {
	t.Helper()
	a, err := NewNamedApp(name, cores, refs, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]Op, cores)
	for core := range out {
		for {
			op, ok := a.Next(core)
			if !ok {
				break
			}
			out[core] = append(out[core], op)
		}
	}
	return out
}

// prefetchRegimes start a Prefetch four ways: the producer never runs,
// so the caller generates every op; the producer fills every ring
// before the first pop; every ring holds one op; and the producer runs
// free beside the caller. The last three start a producer only where
// one can run on a CPU of its own (more than one P, Linux on amd64);
// elsewhere they skip, since the caller would generate every op.
var prefetchRegimes = []struct {
	name  string
	ring1 bool // a budget of one slot per core
	start func(f *Prefetch, want [][]Op)
}{
	{name: "never-started", start: func(f *Prefetch, _ [][]Op) { f.start(false) }},
	{name: "filled-first", start: func(f *Prefetch, want [][]Op) {
		f.start(true)
		for core := range want {
			full := min(f.mask+1, uint64(len(want[core])))
			for f.shared[core].tail.Load() < full && !f.exited.Load() {
				runtime.Gosched()
			}
		}
	}},
	{name: "ring-1", ring1: true, start: func(f *Prefetch, _ [][]Op) { f.start(true) }},
	{name: "free-running", start: func(f *Prefetch, _ [][]Op) { f.start(true) }},
}

// readAll reads every core's stream through f, the cores interleaved in
// a random order, and fails on the first op that differs from want.
func readAll(t *testing.T, f *Prefetch, want [][]Op, order *rand.Rand) {
	t.Helper()
	pos := make([]int, len(want))
	open := make([]int, len(want))
	for core := range open {
		open[core] = core
	}
	for len(open) > 0 {
		i := order.Intn(len(open))
		core := open[i]
		op, ok := f.Next(core)
		if !ok {
			if pos[core] != len(want[core]) {
				t.Fatalf("core %d ended after %d ops, want %d", core, pos[core], len(want[core]))
			}
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
			continue
		}
		if pos[core] == len(want[core]) {
			t.Fatalf("core %d: op %d %+v past the stream's end", core, pos[core], op)
		}
		if w := want[core][pos[core]]; op != w {
			t.Fatalf("core %d op %d: %+v, want %+v", core, pos[core], op, w)
		}
		pos[core]++
	}
}

// TestPrefetchStreamsMatchApp reads every core's stream through the
// rings and requires App.Next's own, op for op: all 13 applications at
// 16 and 64 cores and FFT at 1024, seeds 0, 1 and -7, in each regime.
// Run under -race it also checks that the two sides never touch a
// core's App state, or a slot, at the same time.
func TestPrefetchStreamsMatchApp(t *testing.T) {
	type shape struct {
		app         string
		cores, refs int
	}
	var shapes []shape
	for _, name := range AppNames() {
		shapes = append(shapes, shape{name, 16, 300}, shape{name, 64, 60})
	}
	shapes = append(shapes, shape{"FFT", 1024, 12})
	for _, s := range shapes {
		for _, seed := range []int64{0, 1, -7} {
			want := streams(t, s.app, s.cores, s.refs, seed)
			for _, r := range prefetchRegimes {
				t.Run(fmt.Sprintf("%s/%d/seed%d/%s", s.app, s.cores, seed, r.name), func(t *testing.T) {
					app, err := NewNamedApp(s.app, s.cores, s.refs, seed)
					if err != nil {
						t.Fatal(err)
					}
					f := NewPrefetch(app)
					if r.ring1 {
						f.budget = s.cores * 8
					}
					r.start(f, want)
					defer f.Stop()
					if r.name != "never-started" && !f.locked {
						t.Skip("no producer runs here")
					}
					if r.ring1 && f.mask != 0 {
						t.Fatalf("ring of %d slots, want 1", f.mask+1)
					}
					readAll(t, f, want, rand.New(rand.NewSource(seed)))
					// Reset rewinds the App and the rings.
					if r.name == "free-running" && s.cores == 16 {
						f.Reset()
						readAll(t, f, want, rand.New(rand.NewSource(seed+1)))
					}
				})
			}
		}
	}
}

// TestNoProducerAtOneP requires that at GOMAXPROCS=1, where a producer
// could only take turns with the simulation, the first Next starts no
// goroutine and the caller generates on its own.
func TestNoProducerAtOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	app, err := NewNamedApp("FFT", 16, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := NewPrefetch(app)
	defer f.Stop()
	before := runtime.NumGoroutine()
	if _, ok := f.Next(0); !ok {
		t.Fatal("core 0's stream is empty")
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("first Next: %d goroutines, %d before", n, before)
	}
	if !f.exited.Load() {
		t.Error("a producer runs at GOMAXPROCS=1")
	}
}

// TestProducerStartsWhereItCanBePlaced requires the first Next to
// start a producer where one can run on a CPU of its own: on Linux on
// amd64, with more than one P and more than one CPU. No other test
// fails when none ever starts.
func TestProducerStartsWhereItCanBePlaced(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" || runtime.GOMAXPROCS(0) < 2 || runtime.NumCPU() < 2 {
		t.Skip("no CPU of its own for a producer here")
	}
	app, err := NewNamedApp("FFT", 16, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := NewPrefetch(app)
	defer f.Stop()
	if _, ok := f.Next(0); !ok {
		t.Fatal("core 0's stream is empty")
	}
	if !f.locked {
		t.Error("the first Next started no producer")
	}
}

// TestPackOpRoundTrip covers the slot encoding at its edges.
func TestPackOpRoundTrip(t *testing.T) {
	for _, op := range []Op{
		{Kind: OpCompute, Cycles: 1},
		{Kind: OpCompute, Cycles: 10 * maxComputeMean},
		{Kind: OpLoad, Addr: 0},
		{Kind: OpLoad, Addr: 1<<64 - 64},
		{Kind: OpStore, Addr: sharedBase + 64},
		{Kind: OpBarrier},
	} {
		if got := unpackOp(packOp(op)); got != op {
			t.Errorf("%+v packed and unpacked is %+v", op, got)
		}
	}
}
