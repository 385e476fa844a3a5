package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tilesim/internal/workload"
)

// spanKind names a timed layer boundary the benchmark can reach from
// outside the simulator.
type spanKind uint8

const (
	spanNext    spanKind = iota // workload.Generator.Next
	spanDeliver                 // coherence.Protocol.Deliver
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"Generator.Next", "Protocol.Deliver"}

// sampleEvery keeps one raw span in this many for the Chrome trace;
// aggregates cover every span.
const sampleEvery = 4096

type frame struct {
	kind  spanKind
	start int64
	// child accumulates the durations of spans nested directly inside.
	child int64
}

// rawSpan is one sampled span, times in ns since the tracer started.
type rawSpan struct {
	kind       spanKind
	start, end int64
	parent     int // spanKind of the enclosing span, -1 at top level
}

// tracer aggregates nested spans in memory. A span's self time is its
// duration minus the spans nested directly inside it: Generator.Next
// nests inside Protocol.Deliver when an L1 fill resumes its core
// synchronously.
type tracer struct {
	clock func() int64 // ns since an arbitrary origin
	stack []frame

	calls [numSpanKinds]uint64
	self  [numSpanKinds]int64
	// top is the summed duration of spans with no parent: the part of
	// the run the spans account for.
	top int64

	finished uint64
	sampled  []rawSpan
}

func newTracer() *tracer {
	origin := time.Now()
	return &tracer{clock: func() int64 { return int64(time.Since(origin)) }}
}

func (t *tracer) begin(k spanKind) {
	t.stack = append(t.stack, frame{kind: k, start: t.clock()})
}

func (t *tracer) end() {
	now := t.clock()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	t.calls[f.kind]++
	t.self[f.kind] += d - f.child
	parent := -1
	if n > 0 {
		t.stack[n-1].child += d
		parent = int(t.stack[n-1].kind)
	} else {
		t.top += d
	}
	t.finished++
	if t.finished%sampleEvery == 0 {
		t.sampled = append(t.sampled, rawSpan{kind: f.kind, start: f.start, end: now, parent: parent})
	}
}

// tracedGen times every Next call of the generator it wraps.
type tracedGen struct {
	inner workload.Generator
	tr    *tracer
}

func (g *tracedGen) Name() string { return g.inner.Name() }
func (g *tracedGen) Reset()       { g.inner.Reset() }

func (g *tracedGen) Next(core int) (workload.Op, bool) {
	g.tr.begin(spanNext)
	op, ok := g.inner.Next(core)
	g.tr.end()
	return op, ok
}

// writeChromeTrace writes the sampled spans in the Chrome trace-event
// format (chrome://tracing, ui.perfetto.dev).
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	evs := make([]event, len(t.sampled))
	for i, s := range t.sampled {
		evs[i] = event{Name: spanNames[s.kind], Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1}
		if s.parent >= 0 {
			evs[i].Args = map[string]string{"parent": spanNames[s.parent]}
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
