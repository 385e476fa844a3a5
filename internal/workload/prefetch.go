package workload

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Prefetch serves an App's per-core streams through one bounded ring
// per core, which a producer goroutine fills ahead of the caller. A
// core's stream is a pure function of (application, core, seed), so it
// is the same whichever side generates it: each core's App state is
// advanced by one side at a time, under that core's ownership token,
// and the caller generates an op itself only once the core's ring is
// empty. Per-core op order is therefore App.Next's by construction
// (DESIGN.md §16.7).
//
// The caller never parks on the producer. Next pops a published op;
// when the core's ring is empty and the token is free it fills one
// batch itself and pops from that; once no producer runs, nor will, it
// calls App.Next itself. Only while the producer holds the token, which
// it does for one batch at most, does Next spin, yielding after a
// while.
//
// The producer starts on the first Next only where it can run on a CPU
// of its own: each ring holds a batch, the process runs no more
// simulations than it has spare CPUs, there is more than one P, and the
// caller's thread may run on another CPU than its own (Linux on amd64).
// Anywhere else the caller generates every op. The producer allocates
// nothing after it starts; Stop ends it. While it runs, the caller's
// goroutine stays locked to its thread (runtime.LockOSThread), so Next
// and Stop are for one goroutine, like App.Next.
type Prefetch struct {
	app    *App
	budget int // bytes for all rings together

	// Set by start.
	shared  []ringShared // per core: what both sides touch
	cursors []cursor     // per core: the caller's view
	prod    []cursor     // per core: the producer's view
	slots   []uint64     // core c's ring is slots[c<<shift:][:1<<shift]
	shift   uint
	mask    uint64 // ring capacity - 1
	batch   uint64 // most ops per token hold; the caller publishes its head every batch pops

	counted bool        // counted in live, from start to Stop
	locked  bool        // start locked the caller to its thread
	stop    atomic.Bool // Stop asks the producer to exit
	exited  atomic.Bool // no producer runs
}

// live counts the Prefetches in the process between their first Next
// and Stop: the simulations running at once, each of which a producer
// would take a second CPU for.
var live atomic.Int32

// spareCPUs is how many simulations may each have a producer at once:
// half the Ps, at least one. A sweep that runs a simulation on every P
// gains nothing from producers, which could only take turns with the
// simulations on their CPUs.
func spareCPUs() int32 {
	return int32(max(1, runtime.GOMAXPROCS(0)/2))
}

// ringBytes is the byte budget of all rings together. Each core gets
// the largest power-of-two number of 8-byte slots that its share
// holds, at least one: 256 ops at 16 cores, 64 at 64, 4 at 1024 (where
// no producer runs). At 32 KiB the slots are one small-object
// allocation; a 64 KiB budget read radix-stride-ber's peak_rss_mb
// about 4% higher.
const ringBytes = 32 << 10

// maxBatch bounds the ops either side generates under one token hold,
// and so how long Next can spin on a core whose ring ran dry while the
// producer fills it.
const maxBatch = 16

// spinsBeforeYield is how many times Next retries a core whose token
// the producer holds before it yields each retry: the producer's
// thread may be descheduled mid-batch, and a caller that only spun
// would hold its P, and its CPU, until that thread ran again.
const spinsBeforeYield = 1024

// napAfter is how many core checks in a row the producer finds nothing
// to fill before it naps, about 0.3 ms at 16 cores: a nap lets the
// rings run dry, and a simulation that pauses for longer than a few
// hundred passes is common. A nap sleeps for nap, which an idle Go
// runtime rounds up to its timer resolution (about a millisecond on
// Linux); Stop waits for at most one.
const (
	napAfter = 1 << 16
	nap      = 50 * time.Microsecond
)

// ringShared is the part of a core's ring both sides touch, alone on
// its cache line.
type ringShared struct {
	// head counts the ops the caller has taken, published every batch.
	head atomic.Uint64
	// tail counts the ops published into the ring, by either side.
	tail atomic.Uint64
	// token is 1 while one side advances the core's App state.
	token atomic.Uint32
	_     [64 - 20]byte
}

// cursor is one side's private copy of a ring's counters: for the
// caller, how many ops it has taken and the last tail it read; for the
// producer, the last head and tail it read or published. For the
// producer, ended marks a stream it saw end; for the caller, alone marks
// a tail that no producer will move again.
type cursor struct {
	head, tail   uint64
	ended, alone bool
}

// packOp stores an App op in one slot: the kind in the low two bits,
// above them a compute op's cycles or a reference's block address,
// whose low six bits are zero. App emits nothing else: addresses step
// in 64-byte blocks from block-aligned bases, and a compute gap is at
// most ten times Params.ComputeMean, which Validate bounds.
func packOp(op Op) uint64 {
	switch op.Kind {
	case OpCompute:
		return uint64(op.Cycles)<<2 | uint64(OpCompute)
	case OpLoad, OpStore:
		return op.Addr | uint64(op.Kind)
	case OpBarrier:
	}
	return uint64(op.Kind)
}

// unpackOp is packOp's inverse.
func unpackOp(w uint64) Op {
	kind := OpKind(w & 3)
	switch kind {
	case OpCompute:
		return Op{Kind: kind, Cycles: int(w >> 2)}
	case OpLoad, OpStore:
		return Op{Kind: kind, Addr: w &^ 3}
	case OpBarrier:
	}
	return Op{Kind: kind}
}

// NewPrefetch serves app through rings within the fixed byte budget.
// It allocates the Prefetch only: the rings and the producer come with
// the first Next.
func NewPrefetch(app *App) *Prefetch {
	return &Prefetch{app: app, budget: ringBytes}
}

// Name implements Generator.
func (f *Prefetch) Name() string { return f.app.Name() }

// Reset implements Generator: it stops the producer and rewinds the
// App; the next Next starts again from empty rings.
func (f *Prefetch) Reset() {
	f.Stop()
	f.app.Reset()
	f.shared, f.cursors, f.prod, f.slots = nil, nil, nil, nil
}

// ringShift is log2 of the slots per ring when cores share budget
// bytes.
func ringShift(budget, cores int) uint {
	per := max(budget/(cores*8), 1)
	shift := uint(0)
	for 2<<shift <= per {
		shift++
	}
	return shift
}

// start allocates empty rings and, with produce, starts the producer
// where it can run on a CPU of its own (see Prefetch).
func (f *Prefetch) start(produce bool) {
	cores := len(f.app.cores)
	f.shift = ringShift(f.budget, cores)
	f.mask = 1<<f.shift - 1
	f.batch = min(f.mask+1, maxBatch)
	f.shared = make([]ringShared, cores)
	f.cursors = make([]cursor, cores)
	f.prod = make([]cursor, cores)
	f.slots = make([]uint64, cores<<f.shift)
	f.counted, f.locked = true, false
	f.stop.Store(false)
	f.exited.Store(true)
	spare := spareCPUs()
	if live.Add(1) > spare || !produce || runtime.GOMAXPROCS(0) < 2 {
		return
	}
	// Locked, the caller keeps its thread and so its CPU, which the
	// producer's thread then avoids. Unlocked, it could resume on another
	// thread that sits on the producer's CPU.
	runtime.LockOSThread()
	others, ok := otherCPUs()
	if !ok {
		runtime.UnlockOSThread()
		return
	}
	f.locked = true
	f.exited.Store(false)
	go f.produce(others, spare)
}

// Stop ends the producer and returns once it has exited. The rings
// keep what it published, and Next goes on serving that and then
// generating itself. Stop is idempotent.
func (f *Prefetch) Stop() {
	if !f.counted {
		return
	}
	f.counted = false
	live.Add(-1)
	f.stop.Store(true)
	for !f.exited.Load() {
		runtime.Gosched()
	}
	if f.locked {
		runtime.UnlockOSThread()
	}
}

// Next implements Generator.
func (f *Prefetch) Next(core int) (Op, bool) {
	if f.shared == nil {
		// A producer pays only where a ring holds a batch: with shorter
		// rings (1024 cores) it must come back to every core every few
		// ops, and it read fft-torus1024's wall_s 6% slower on a 2-vCPU
		// host.
		f.start(1<<ringShift(f.budget, len(f.app.cores)) >= maxBatch)
	}
	c := &f.cursors[core]
	switch {
	case c.head != c.tail:
		return f.pop(core, c), true
	case c.alone:
		return f.app.Next(core)
	}
	return f.refill(core, c)
}

// pop takes the core's next published op.
func (f *Prefetch) pop(core int, c *cursor) Op {
	w := f.slots[core<<f.shift|int(c.head&f.mask)]
	c.head++
	if c.head&(f.batch-1) == 0 {
		f.shared[core].head.Store(c.head)
	}
	return unpackOp(w)
}

// refill serves a core whose ring looked empty: from the ring if the
// producer has published since; from the App itself once no producer
// runs, nor will; otherwise from a batch it generates into the ring
// under the core's token.
func (f *Prefetch) refill(core int, c *cursor) (Op, bool) {
	sh := &f.shared[core]
	for spins := 0; ; spins++ {
		// exited is read first: a producer publishes before it exits, so
		// a tail read after it is final.
		exited := f.exited.Load()
		if c.tail = sh.tail.Load(); c.tail != c.head {
			return f.pop(core, c), true
		}
		if exited {
			c.alone = true
			return f.app.Next(core)
		}
		if sh.token.Load() == 0 && sh.token.CompareAndSwap(0, 1) {
			// The producer publishes before it releases the token, so
			// what it published last is visible now and comes first.
			if c.tail = sh.tail.Load(); c.tail == c.head {
				// The ring is empty: publish the head so that the
				// producer sees all of it free, and fill one batch.
				sh.head.Store(c.head)
				c.tail, _ = f.generate(core, c.head, f.batch)
				sh.tail.Store(c.tail)
			}
			sh.token.Store(0)
			if c.tail == c.head {
				return Op{}, false
			}
			return f.pop(core, c), true
		}
		if spins >= spinsBeforeYield {
			runtime.Gosched()
		}
	}
}

// produce fills rings, one batch per core and pass, until every stream
// has ended, Stop asks it to exit, or more than spare simulations run
// in the process. A pass that fills nothing polls again at once; after
// napAfter core checks that filled nothing, the producer naps.
//
// The caller is locked to its thread, and the producer first moves its
// own thread to others, the CPUs but the caller's: a host that does not
// balance load between CPUs otherwise keeps a new thread on the CPU of
// the thread that made it, where the two would take turns. If it
// cannot, it exits, and the caller generates on its own. An idle pass
// does not yield: a locked goroutine that yields hands its P to another
// thread and wakes its own again, and those threads may run on the
// caller's CPU.
func (f *Prefetch) produce(others cpuMask, spare int32) {
	defer f.exited.Store(true)
	// The goroutine exits locked, which ends the thread and its CPU
	// restriction with it.
	runtime.LockOSThread()
	if !runOn(others) {
		return
	}
	idleLimit := napAfter / len(f.prod)
	for idle := 0; !f.stop.Load() && live.Load() <= spare; {
		open, filled := false, false
		for core := range f.prod {
			p := &f.prod[core]
			if p.ended {
				continue
			}
			open = true
			if f.free(core, p) >= f.batch && f.fill(core, p) {
				filled = true
			}
		}
		switch {
		case !open:
			return
		case filled:
			idle = 0
		case idle < idleLimit:
			idle++
		default:
			time.Sleep(nap)
		}
	}
}

// free is the room in a core's ring as far as the producer knows,
// re-reading the ring's counters when its last view shows less than a
// batch.
func (f *Prefetch) free(core int, p *cursor) uint64 {
	size := f.mask + 1
	if n := size - (p.tail - p.head); n >= f.batch {
		return n
	}
	sh := &f.shared[core]
	p.head, p.tail = sh.head.Load(), sh.tail.Load()
	return size - (p.tail - p.head)
}

// fill generates up to one batch into a core's ring under its token and
// publishes it. It reports whether it published anything.
func (f *Prefetch) fill(core int, p *cursor) bool {
	sh := &f.shared[core]
	if sh.token.Load() != 0 || !sh.token.CompareAndSwap(0, 1) {
		return false
	}
	// The caller may have filled the ring since the producer last
	// looked. Under the token the tail is exact, and the published head
	// at most the caller's.
	p.head, p.tail = sh.head.Load(), sh.tail.Load()
	t, ended := f.generate(core, p.tail, min(f.mask+1-(p.tail-p.head), f.batch))
	published := t != p.tail
	if published {
		p.tail = t
		sh.tail.Store(t)
	}
	p.ended = ended
	sh.token.Store(0)
	return published
}

// generate writes up to n of a core's next ops into its ring from slot
// tail on, for the side holding the core's token, and returns the new
// tail and whether the stream ended first.
func (f *Prefetch) generate(core int, tail, n uint64) (uint64, bool) {
	ring := f.slots[core<<f.shift:][:f.mask+1]
	for end := tail + n; tail < end; tail++ {
		op, ok := f.app.Next(core)
		if !ok {
			return tail, true
		}
		ring[tail&f.mask] = packOp(op)
	}
	return tail, false
}
