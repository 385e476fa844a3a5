// Package obs is tilesim's observability layer: a pull-based metrics
// registry and a message-lifecycle tracer, threaded through the
// simulator stack (sim, mesh, coherence, core, cmp) and surfaced by
// the command-line front-ends (DESIGN.md §10).
//
// Design rules:
//
//   - Zero overhead when disabled. The registry is pull-based: it holds
//     closures over counters the components maintain anyway, so nothing
//     happens on the hot path until Snapshot is called. Tracer hooks are
//     nil-guarded pointer checks; with no tracer attached a hook costs
//     one branch (cmd/tilesimvet's obshooks analyzer enforces the
//     guard-before-call discipline in hot loops).
//   - Deterministic output. Snapshots serialize with sorted keys and
//     shortest-round-trip float encoding; trace events are emitted in
//     simulation order with simulated-clock timestamps only. Two
//     same-seed runs produce byte-identical metrics and trace files
//     (the CI obs-smoke job asserts this).
//   - No simulation feedback. Hooks only read state; attaching a
//     registry or tracer never changes a single simulated cycle.
package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"

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

// activeFields maps each metric type to the fields that are meaningful
// for it — the fields MarshalJSON always emits, zero or not.
var activeFields = map[string][]string{
	"counter":   {"count"},
	"gauge":     {"value"},
	"mean":      {"count", "mean", "min", "max"},
	"histogram": {"count", "mean", "min", "max", "p50", "p99"},
}

// MarshalJSON emits the metric with its type's active fields always
// present, so a counter at Count 0 ({"type":"counter","count":0}) is
// distinguishable from an absent or corrupted field set — the plain
// struct tags' omitempty made the two byte-identical. Inactive fields
// (always zero by construction) stay omitted. Unknown types fall back
// to emitting every non-zero field. Floats are clamped like
// formatFloat (NaN/Inf to 0), so marshaling never fails.
//
// This governs the encoding/json path only (sweep cache entries,
// figures sidecars); Snapshot.WriteJSON keeps its original
// omit-all-zeros encoding so existing golden snapshot files stay
// byte-identical.
func (m Metric) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"type":` + quote(m.Type))
	fields := activeFields[m.Type]
	if fields == nil {
		// Unknown type: preserve whatever is set.
		for _, f := range []string{"count", "value", "mean", "min", "max", "p50", "p99"} {
			if m.field(f) != 0 {
				fields = append(fields, f)
			}
		}
	}
	for _, f := range fields {
		b.WriteString("," + quote(f) + ":")
		if f == "count" {
			fmt.Fprintf(&b, "%d", m.Count)
		} else {
			b.WriteString(formatFloat(m.field(f)))
		}
	}
	b.WriteString("}")
	return b.Bytes(), nil
}

// field returns the named field's value as a float64 (Count included,
// exact below 2^53 — metric counts in practice).
func (m Metric) field(name string) float64 {
	switch name {
	case "count":
		return float64(m.Count)
	case "value":
		return m.Value
	case "mean":
		return m.Mean
	case "min":
		return m.Min
	case "max":
		return m.Max
	case "p50":
		return m.P50
	case "p99":
		return m.P99
	}
	panic(fmt.Sprintf("obs: unknown metric field %q", name))
}

// Snapshot is a point-in-time reading of every registered metric,
// keyed by hierarchical metric name (e.g. "net.link.00->01.B.flits").
type Snapshot map[string]Metric

// source produces one metric reading. Boxing happens once at
// registration (cold path), never per sample.
type source func() Metric

// Registry names and snapshots the metrics of one simulated system.
// Registration is cold-path; components keep updating their own
// stats.Counter/Mean/Histogram values and the registry reads them out
// on Snapshot. The zero value is not ready; use NewRegistry.
type Registry struct {
	sources map[string]source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: make(map[string]source)}
}

// register installs a source under a unique name.
func (r *Registry) register(name string, s source) {
	if _, dup := r.sources[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	r.sources[name] = s
}

// Counter registers a monotone count read through fn (typically a
// stats.Counter.Value method value).
func (r *Registry) Counter(name string, fn func() uint64) {
	r.register(name, func() Metric {
		return Metric{Type: "counter", Count: fn()}
	})
}

// Gauge registers an instantaneous value read through fn.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.register(name, func() Metric {
		return Metric{Type: "gauge", Value: fn()}
	})
}

// Mean registers a stats.Mean distribution.
func (r *Registry) Mean(name string, m *stats.Mean) {
	r.register(name, func() Metric {
		return Metric{
			Type:  "mean",
			Count: m.N(),
			Mean:  m.Value(),
			Min:   m.Min(),
			Max:   m.Max(),
		}
	})
}

// Histogram registers a stats.Histogram distribution with percentile
// summaries.
func (r *Registry) Histogram(name string, h *stats.Histogram) {
	r.register(name, func() Metric {
		return Metric{
			Type:  "histogram",
			Count: h.N(),
			Mean:  h.Mean(),
			Min:   h.Min(),
			Max:   h.Max(),
			P50:   h.Percentile(0.50),
			P99:   h.Percentile(0.99),
		}
	})
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.sources) }

// Names returns every registered metric name in sorted order.
func (r *Registry) Names() []string {
	return stats.SortedKeys(r.sources)
}

// Snapshot reads every source. The result is a plain map safe to
// marshal, compare, and attach to cached results. It reads the sources
// in map order: every source only reads, and filling a map is
// order-free, so no sort is needed (a 1024-tile run has 18,507 names).
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot, len(r.sources))
	for name, src := range r.sources { //tilesim:ordered — read-only sources fill a map
		out[name] = src()
	}
	return out
}

// WriteJSON serializes the snapshot as pretty-printed JSON with sorted
// keys and shortest-round-trip floats, so two snapshots of identical
// readings are byte-identical.
func (s Snapshot) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\n")
	for i, name := range stats.SortedKeys(s) {
		m := s[name]
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, "  %s: {", quote(name))
		fmt.Fprintf(bw, "\"type\": %s", quote(m.Type))
		if m.Count != 0 {
			fmt.Fprintf(bw, ", \"count\": %d", m.Count)
		}
		writeFloatField(bw, "value", m.Value)
		writeFloatField(bw, "mean", m.Mean)
		writeFloatField(bw, "min", m.Min)
		writeFloatField(bw, "max", m.Max)
		writeFloatField(bw, "p50", m.P50)
		writeFloatField(bw, "p99", m.P99)
		bw.WriteString("}")
	}
	bw.WriteString("\n}\n")
	return bw.Flush()
}

// writeFloatField emits a ", \"key\": value" pair, omitting zeros (the
// struct tags' omitempty, mirrored for the hand-rolled writer).
func writeFloatField(w *bufio.Writer, key string, v float64) {
	if v == 0 {
		return
	}
	fmt.Fprintf(w, ", %s: %s", quote(key), formatFloat(v))
}

// formatFloat renders a float as a JSON number: shortest
// round-trippable form, never NaN/Inf (clamped to 0, which valid
// metrics never produce).
func formatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	out := strconv.FormatFloat(v, 'g', -1, 64)
	// JSON numbers may not spell "e+07" with Go's 'g' uppercase — 'g'
	// emits lowercase 'e', which JSON accepts. Nothing to fix, but keep
	// integers readable.
	return out
}

// quote escapes a string for JSON. Metric names and types are plain ASCII
// identifiers; strconv.Quote is a strict superset of JSON escaping for
// them.
func quote(s string) string { return strconv.Quote(s) }
