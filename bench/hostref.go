package main

import "time"

// The host reference: a fixed program, unrelated to the simulator's
// code, that every repetition times just before and just after its
// simulation. On a shared host the simulator's speed drifts by tens of
// percent over seconds to minutes with contention for caches, memory
// and cores, which no run length averages away. A program of the same
// shape as a discrete-event simulator (a binary-heap event queue
// dispatching onto pointer-linked objects that fit in the L2 cache)
// drifts with it, so the benchmark reports host time scaled by
// refNominalS over the reference's time: the time the repetition would
// have taken on the reference host when quiet (README.md, "Noise and
// bounds"). Never change this program or its constants: every result
// ever reported is scaled by them.

const (
	refObjects = 4096
	refQueue   = 256
	refSteps   = 300000
	// refNominalS is one refProgram.run on the reference host when
	// quiet: the lower end of its times there.
	refNominalS = 0.021
)

type refEvent struct {
	at  uint64
	obj int32
}

type refObject struct {
	state uint64
	next  *refObject
	buf   [8]uint64
}

// refProgram is the reference's state, built once per process so that
// only its first run pays for page faults.
type refProgram struct {
	objs  []*refObject
	queue []refEvent
	sink  uint64
}

func newRefProgram() *refProgram {
	p := &refProgram{objs: make([]*refObject, refObjects), queue: make([]refEvent, 0, refQueue+1)}
	for i := range p.objs {
		p.objs[i] = &refObject{state: uint64(i)}
	}
	for i := range p.objs {
		p.objs[i].next = p.objs[(i*2654435761)%refObjects]
	}
	return p
}

// run dispatches steps events; each updates its object and a linked one
// and schedules a successor 1-256 cycles later on another object.
func (p *refProgram) run(steps int) {
	p.queue = p.queue[:0]
	for i := 0; i < refQueue; i++ {
		p.push(refEvent{uint64(i), int32(i * 16 % refObjects)})
	}
	r := uint64(11)
	for s := 0; s < steps; s++ {
		e := p.pop()
		o := p.objs[e.obj]
		r = r*6364136223846793005 + 1442695040888963407
		o.state += r
		o.next.buf[r>>61] ^= o.state
		p.push(refEvent{e.at + 1 + (r>>40)&255, int32((uint64(e.obj) + r>>50) % refObjects)})
	}
	p.sink += r
}

// seconds times one full run.
func (p *refProgram) seconds() float64 {
	t0 := time.Now()
	p.run(refSteps)
	return time.Since(t0).Seconds()
}

func (p *refProgram) push(e refEvent) {
	q := append(p.queue, e)
	for i := len(q) - 1; i > 0; {
		up := (i - 1) / 2
		if q[up].at <= q[i].at {
			break
		}
		q[up], q[i] = q[i], q[up]
		i = up
	}
	p.queue = q
}

func (p *refProgram) pop() refEvent {
	q := p.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].at < q[c].at {
			c++
		}
		if q[i].at <= q[c].at {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	p.queue = q
	return top
}
