// Package obs is tilesim's observability layer (DESIGN.md §10): a
// metrics registry in which each quantity is declared once with its
// kind, read at the end of a run by Snapshot and on a simulated-time
// grid by the epoch Series; a message-lifecycle tracer; and the
// Pollers that schedule periodic samplers on the kernel. It is threaded
// through the simulator stack (sim, mesh, coherence, core, cmp) and
// surfaced by the command-line front-ends.
//
// Design rules:
//
//   - Zero overhead when disabled. The registry is pull-based: it holds
//     readers over counters the components maintain anyway, so nothing
//     happens on the hot path until a snapshot or a sample reads them.
//     Tracer hooks are nil-guarded pointer checks; with no tracer
//     attached a hook costs one branch. Tracer methods are not
//     nil-safe, so a hook that loses its guard crashes every untraced
//     run that reaches it.
//   - Deterministic output. Snapshots serialize with sorted keys and
//     shortest-round-trip float encoding; series columns are sorted by
//     name; trace events are emitted in simulation order with
//     simulated-clock timestamps only. Two same-seed runs produce
//     byte-identical metrics, series and trace files.
//   - No simulation feedback. Readers and hooks only read state;
//     attaching a registry, series or tracer never changes a single
//     simulated cycle.
package obs

import (
	"fmt"
	"slices"
	"strings"

	"tilesim/internal/sim"
	"tilesim/internal/stats"
)

// Metric is one exported measurement. Type discriminates which fields
// are meaningful: counters carry Count, gauges carry Value, means and
// histograms carry the distribution fields.
type Metric struct {
	Type  string  `json:"type"` // "counter", "gauge", "mean" or "histogram"
	Count uint64  `json:"count,omitempty"`
	Value float64 `json:"value,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Snapshot is a point-in-time reading of every registered metric,
// keyed by hierarchical metric name (e.g. "net.link.00->01.B.flits").
type Snapshot map[string]Metric

// Registry declares every quantity of one simulated system once, by
// name and kind, and reads them out. Declaration is cold-path:
// components keep updating their own counters and stats values, and the
// registry holds one typed reader per quantity, whose Go type is its
// kind. Snapshot reads every quantity; a Series built on the registry
// samples the quantities declared through Sampled. The zero value is
// not ready; use NewRegistry.
//
// Each kind has one reading in the snapshot and one in the series:
//
//   - Counter: a monotone count; the series reports its increment per
//     window.
//   - Gauge: an instantaneous value, read at snapshot time and at each
//     window boundary.
//   - Utilization: a monotone busy-cycle count; the snapshot divides it
//     by the clock, the series its increment by the window length (a
//     0..1 duty cycle for a resource busy at most once per cycle). The
//     snapshot reports it as a gauge.
//   - Ratio: two monotone counts; the snapshot reports num/den over the
//     run as a gauge, the series the increment of num over that of den
//     in each window. Both read 0 when den is 0 or did not move.
//   - Mean and Histogram: distributions, read by the snapshot only.
type Registry struct {
	decls *declarations // shared by r and its Sampled view
	// sampling marks this view's declarations as sampled.
	sampling bool
}

// declarations holds a registry's declarations in declaration order,
// in chunks of declChunk: each chunk is allocated once and never
// regrown, so a 1024-tile system's 18,507 declarations leave no growth
// garbage behind. A name is checked for duplicates where the
// declarations are read (Snapshot, NewSeries, Names), not at each
// declaration.
type declarations struct {
	chunks [][]decl
	n      int
}

// declChunk is the number of declarations per chunk (10 KB).
const declChunk = 256

// decl is one declared quantity: its name, its reader and whether the
// series samples it.
type decl struct {
	name    string
	q       any
	sampled bool
}

// The readers of the scalar kinds. Storing a func reader in an
// interface boxes nothing; a ratio's two funcs take one allocation.
type (
	counter     func() uint64
	gauge       func() float64
	utilization func() uint64
	ratio       struct{ num, den func() uint64 }
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{decls: &declarations{}} }

// Sampled returns a view of r: a quantity declared through it is read
// by Snapshot like any other, and an epoch Series built on r samples it
// as well. Only the four scalar kinds can be sampled.
func (r *Registry) Sampled() *Registry { return &Registry{decls: r.decls, sampling: true} }

// declare appends a reader under a name. A nil reader panics here; a
// name declared twice panics when the declarations are read.
func (r *Registry) declare(name string, isNil bool, q any) {
	if isNil {
		panic(fmt.Sprintf("obs: nil reader for metric %q", name))
	}
	d := r.decls
	if len(d.chunks) == 0 || len(d.chunks[len(d.chunks)-1]) == declChunk {
		d.chunks = append(d.chunks, make([]decl, 0, declChunk))
	}
	last := &d.chunks[len(d.chunks)-1]
	*last = append(*last, decl{name: name, q: q, sampled: r.sampling})
	d.n++
}

// sorted returns every declaration in name order. It panics on the
// first name declared twice, across the plain and sampled views alike.
func (r *Registry) sorted() []decl {
	all := make([]decl, 0, r.decls.n)
	for _, c := range r.decls.chunks {
		all = append(all, c...)
	}
	slices.SortFunc(all, func(a, b decl) int { return strings.Compare(a.name, b.name) })
	for i := 1; i < len(all); i++ {
		if all[i].name == all[i-1].name {
			panic(fmt.Sprintf("obs: duplicate metric name %q", all[i].name))
		}
	}
	return all
}

// Counter declares a monotone count read through fn (typically a
// stats.Counter.Value method value).
func (r *Registry) Counter(name string, fn func() uint64) { r.declare(name, fn == nil, counter(fn)) }

// Gauge declares an instantaneous value read through fn.
func (r *Registry) Gauge(name string, fn func() float64) { r.declare(name, fn == nil, gauge(fn)) }

// Utilization declares a monotone busy-cycle count read through busy.
func (r *Registry) Utilization(name string, busy func() uint64) {
	r.declare(name, busy == nil, utilization(busy))
}

// Ratio declares the ratio of two monotone counts.
func (r *Registry) Ratio(name string, num, den func() uint64) {
	r.declare(name, num == nil || den == nil, ratio{num, den})
}

// Mean declares a stats.Mean distribution.
func (r *Registry) Mean(name string, m *stats.Mean) { r.declare(name, m == nil, m) }

// Histogram declares a stats.Histogram distribution with percentile
// summaries.
func (r *Registry) Histogram(name string, h *stats.Histogram) { r.declare(name, h == nil, h) }

// Names returns every declared name in sorted order. A name declared
// twice panics.
func (r *Registry) Names() []string {
	all := r.sorted()
	names := make([]string, len(all))
	for i, d := range all {
		names[i] = d.name
	}
	return names
}

// Snapshot reads every quantity at cycle now. The result is a plain map
// safe to marshal, compare, and attach to cached results. It reads the
// quantities in declaration order into a map sized once; a map shorter
// than the declarations holds a name declared twice, which panics.
func (r *Registry) Snapshot(now sim.Time) Snapshot {
	out := make(Snapshot, r.decls.n)
	for _, c := range r.decls.chunks {
		for _, d := range c {
			out[d.name] = read(d.q, now)
		}
	}
	if len(out) != r.decls.n {
		r.sorted() // panics naming the duplicate
	}
	return out
}

// read returns one quantity's snapshot reading at cycle now.
func read(q any, now sim.Time) Metric {
	switch q := q.(type) {
	case counter:
		return Metric{Type: "counter", Count: q()}
	case gauge:
		return Metric{Type: "gauge", Value: q()}
	case utilization:
		return Metric{Type: "gauge", Value: stats.Ratio(float64(q()), float64(now))}
	case ratio:
		return Metric{Type: "gauge", Value: stats.Ratio(float64(q.num()), float64(q.den()))}
	case *stats.Mean:
		return Metric{Type: "mean", Count: q.N(), Mean: q.Value(), Min: q.Min(), Max: q.Max()}
	case *stats.Histogram:
		return Metric{
			Type:  "histogram",
			Count: q.N(),
			Mean:  q.Mean(),
			Min:   q.Min(),
			Max:   q.Max(),
			P50:   q.Percentile(0.50),
			P99:   q.Percentile(0.99),
		}
	}
	panic(fmt.Sprintf("obs: no reading for %T", q))
}
