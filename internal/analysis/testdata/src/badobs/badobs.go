// Package badobs is a tilesimvet fixture: it calls an obs.Tracer hook
// from a hot loop without the nil-guarded fast path, beside the guarded
// and loop-free shapes the obshooks rule accepts.
package badobs

import "tilesim/internal/obs"

// Mesh mimics a simulator component with an optional tracer.
type Mesh struct {
	tracer *obs.Tracer
}

// Drain emits one event per delivered message without checking that a
// tracer is attached: with observability disabled this is a nil-pointer
// panic, and it defeats the one-pointer-check fast path.
func (m *Mesh) Drain(cycles []uint64) {
	for _, c := range cycles {
		m.tracer.Instant(obs.PidLinks, 0, "drain", "link", c) // want: obshooks finding here
	}
}

// Guarded is the sanctioned fast path: one pointer check per
// iteration.
func (m *Mesh) Guarded(cycles []uint64) {
	for _, c := range cycles {
		if m.tracer != nil {
			m.tracer.Instant(obs.PidCores, 0, "ok", "core", c)
		}
	}
}

// GuardedOutside hoists the guard around the whole loop; the calls
// inside inherit the fact.
func (m *Mesh) GuardedOutside(cycles []uint64) {
	if m.tracer == nil {
		return
	}
	if m.tracer != nil {
		for _, c := range cycles {
			m.tracer.Counter(obs.PidLinks, "flits", c, []obs.Arg{{Key: "n", Val: 1}})
		}
	}
}

// ColdPath calls hooks outside any loop: no guard required by the
// analyzer (the call sites own the lifecycle there).
func (m *Mesh) ColdPath() {
	m.tracer.Instant(obs.PidCores, 0, "end", "core", 0)
}

// Closure bodies are lexical boundaries: the literal's body does not
// run per iteration of the enclosing loop.
func (m *Mesh) Closure(cycles []uint64) func() {
	var fns []func()
	for _, c := range cycles {
		c := c
		fns = append(fns, func() {
			m.tracer.Instant(obs.PidCores, 0, "late", "core", c)
		})
	}
	if len(fns) > 0 {
		return fns[0]
	}
	return nil
}
