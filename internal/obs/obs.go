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
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

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
	plain   map[string]any // read by Snapshot only
	sampled map[string]any // read by Snapshot and by a Series
	// sampling routes this view's declarations to sampled.
	sampling bool
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
func NewRegistry() *Registry {
	return &Registry{plain: make(map[string]any), sampled: make(map[string]any)}
}

// Sampled returns a view of r: a quantity declared through it is read
// by Snapshot like any other, and an epoch Series built on r samples it
// as well. Only the four scalar kinds can be sampled.
func (r *Registry) Sampled() *Registry {
	v := *r
	v.sampling = true
	return &v
}

// declare installs a reader under a name unique across both maps.
func (r *Registry) declare(name string, isNil bool, q any) {
	if isNil {
		panic(fmt.Sprintf("obs: nil reader for metric %q", name))
	}
	_, dup := r.plain[name]
	if _, s := r.sampled[name]; dup || s {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	if r.sampling {
		r.sampled[name] = q
	} else {
		r.plain[name] = q
	}
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

// Names returns every declared name in sorted order.
func (r *Registry) Names() []string {
	names := append(stats.SortedKeys(r.plain), stats.SortedKeys(r.sampled)...)
	slices.Sort(names)
	return names
}

// Snapshot reads every quantity at cycle now. The result is a plain map
// safe to marshal, compare, and attach to cached results. It reads the
// quantities in map order: every reader only reads, and filling a map
// is order-free, so no sort is needed (a 1024-tile run has 18,507
// names).
func (r *Registry) Snapshot(now sim.Time) Snapshot {
	out := make(Snapshot, len(r.plain)+len(r.sampled))
	for name, q := range r.plain { //tilesim:ordered — read-only readers fill a map
		out[name] = read(q, now)
	}
	for name, q := range r.sampled { //tilesim:ordered — read-only readers fill a map
		out[name] = read(q, now)
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
