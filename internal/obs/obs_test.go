package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"tilesim/internal/sim"
	"tilesim/internal/stats"
)

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()

	var c stats.Counter
	c.Add(42)
	r.Counter("net.msgs", c.Value)

	r.Gauge("net.util", func() float64 { return 0.375 })

	var m stats.Mean
	m.Observe(10)
	m.Observe(20)
	r.Mean("lat.mean", &m)

	h := stats.NewHistogram(16, 2)
	h.Observe(3)
	h.Observe(5)
	r.Histogram("lat.hist", h)

	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}

	snap := r.Snapshot()
	if got := snap["net.msgs"]; got.Type != "counter" || got.Count != 42 {
		t.Errorf("counter metric = %+v", got)
	}
	if got := snap["net.util"]; got.Type != "gauge" || got.Value != 0.375 {
		t.Errorf("gauge metric = %+v", got)
	}
	if got := snap["lat.mean"]; got.Type != "mean" || got.Count != 2 ||
		got.Mean != 15 || got.Min != 10 || got.Max != 20 {
		t.Errorf("mean metric = %+v", got)
	}
	if got := snap["lat.hist"]; got.Type != "histogram" || got.Count != 2 ||
		got.Min != 3 || got.Max != 5 || got.P99 != 5 {
		t.Errorf("histogram metric = %+v", got)
	}

	// Registry is pull-based: later component updates show up in a new
	// snapshot without re-registration.
	c.Inc()
	if got := r.Snapshot()["net.msgs"]; got.Count != 43 {
		t.Errorf("pull-through counter = %d, want 43", got.Count)
	}
	// ... but an existing snapshot is a frozen copy.
	if snap["net.msgs"].Count != 42 {
		t.Error("old snapshot mutated by later counter update")
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name, func() uint64 { return 0 })
	}
	names := r.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", func() uint64 { return 0 })
	defer func() {
		if msg, ok := recover().(string); !ok || !strings.Contains(msg, "dup") {
			t.Fatalf("duplicate registration did not panic with name: %v", msg)
		}
	}()
	r.Gauge("dup", func() float64 { return 0 })
}

func TestSnapshotWriteJSON(t *testing.T) {
	r := NewRegistry()
	var c stats.Counter
	c.Add(7)
	r.Counter("b.count", c.Value)
	r.Gauge("a.gauge", func() float64 { return 2.5 })
	snap := r.Snapshot()

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// Valid JSON with the expected shape.
	var parsed map[string]map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, out)
	}
	if parsed["b.count"]["count"] != float64(7) {
		t.Errorf("parsed count = %v", parsed["b.count"])
	}
	if parsed["a.gauge"]["value"] != 2.5 {
		t.Errorf("parsed gauge = %v", parsed["a.gauge"])
	}

	// Sorted keys: "a.gauge" serializes before "b.count".
	if strings.Index(out, "a.gauge") > strings.Index(out, "b.count") {
		t.Errorf("keys not sorted:\n%s", out)
	}

	// Zero-valued fields are omitted (counters carry no float noise).
	if strings.Contains(out, "mean") || strings.Contains(out, "p50") {
		t.Errorf("zero fields not omitted:\n%s", out)
	}

	// Byte-determinism: serializing the same snapshot twice is identical.
	var buf2 bytes.Buffer
	if err := snap.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two serializations of one snapshot differ")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1, "1"},
		{2.5, "2.5"},
		{1e21, "1e+21"},
		{0.1, "0.1"},
	}
	for _, c := range cases {
		if got := formatFloat(c.in); got != c.want {
			t.Errorf("formatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	// NaN/Inf are not valid JSON numbers; they clamp.
	for _, bad := range []float64{nan(), inf()} {
		if got := formatFloat(bad); got != "0" {
			t.Errorf("formatFloat(%v) = %q, want 0", bad, got)
		}
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

// TestMetricJSONRoundTrip pins the omitempty fix: the active fields of
// each metric type are always emitted, zero or not, so a counter at 0
// is distinguishable from an absent field, and decoding either the new
// explicit encoding or the legacy omitempty encoding reproduces the
// struct.
func TestMetricJSONRoundTrip(t *testing.T) {
	cases := []Metric{
		{Type: "counter", Count: 0},
		{Type: "counter", Count: 42},
		{Type: "gauge", Value: 0},
		{Type: "gauge", Value: 0.375},
		{Type: "mean", Count: 2, Mean: 15, Min: 10, Max: 20},
		{Type: "mean"}, // never observed: all zeros, still explicit
		{Type: "histogram", Count: 2, Mean: 4, Min: 3, Max: 5, P50: 3, P99: 5},
	}
	for _, m := range cases {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal %+v: %v", m, err)
		}
		var back Metric
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != m {
			t.Errorf("round trip %+v -> %s -> %+v", m, data, back)
		}
	}

	// The ambiguity itself: zero-count counter and zero-value gauge now
	// serialize with their active field explicit.
	counter, _ := json.Marshal(Metric{Type: "counter"})
	if want := `{"type":"counter","count":0}`; string(counter) != want {
		t.Errorf("zero counter = %s, want %s", counter, want)
	}
	gauge, _ := json.Marshal(Metric{Type: "gauge"})
	if want := `{"type":"gauge","value":0}`; string(gauge) != want {
		t.Errorf("zero gauge = %s, want %s", gauge, want)
	}

	// Legacy omitempty encodings (absent fields) still decode.
	var legacy Metric
	if err := json.Unmarshal([]byte(`{"type": "counter"}`), &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.Type != "counter" || legacy.Count != 0 {
		t.Errorf("legacy decode = %+v", legacy)
	}

	// Snapshots of metrics round-trip through encoding/json (the sweep
	// cache path) including inactive-field omission.
	snap := Snapshot{
		"a.counter": {Type: "counter", Count: 7},
		"b.gauge":   {Type: "gauge", Value: 2.5},
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back["a.counter"] != snap["a.counter"] || back["b.gauge"] != snap["b.gauge"] {
		t.Errorf("snapshot round trip = %+v", back)
	}
}

func TestPollCounters(t *testing.T) {
	k := sim.NewKernel()

	// Simulated workload: an event chain that ends at cycle 100.
	var chain func()
	chain = func() {
		if k.Now() < 100 {
			k.Schedule(10, chain)
		}
	}
	k.Schedule(0, chain)

	var samples []sim.Time
	NewPollers(k).Poll(25, func(now sim.Time) {
		samples = append(samples, now)
	})

	end := k.Run(nil)
	// The workload's final event at cycle 100 ties the poll at 100; the
	// poll (scheduled earlier) fires first, still sees pending work, and
	// trails by exactly one interval — the documented worst case. The
	// t=0 baseline sample fires synchronously at schedule time.
	if end != 125 {
		t.Fatalf("run ended at %d, want 125 (at most one trailing interval)", end)
	}
	want := []sim.Time{0, 25, 50, 75, 100, 125}
	if len(samples) != len(want) {
		t.Fatalf("samples = %v, want %v", samples, want)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("samples = %v, want %v", samples, want)
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("poller left %d events queued after drain", k.Pending())
	}
}

func TestPollCountersZeroIntervalClamps(t *testing.T) {
	k := sim.NewKernel()
	k.Schedule(2, func() {})
	n := 0
	NewPollers(k).Poll(0, func(sim.Time) { n++ })
	k.Run(nil)
	if n == 0 {
		t.Fatal("poller with interval 0 never fired")
	}
}

// TestPollCountersInitialSample pins the t=0 fix: the first sample
// fires at schedule time (before any simulation event), so the first
// interval has a baseline to delta against, and scheduling against an
// already-empty kernel still yields the baseline plus exactly one
// trailing tick.
func TestPollCountersInitialSample(t *testing.T) {
	k := sim.NewKernel()
	k.Schedule(7, func() {}) // one real event inside the first window
	var samples []sim.Time
	NewPollers(k).Poll(25, func(now sim.Time) { samples = append(samples, now) })
	if len(samples) != 1 || samples[0] != 0 {
		t.Fatalf("samples before Run = %v, want the t=0 baseline", samples)
	}
	k.Run(nil)
	want := []sim.Time{0, 25}
	if len(samples) != len(want) || samples[0] != want[0] || samples[1] != want[1] {
		t.Fatalf("samples = %v, want %v", samples, want)
	}
}

// TestPollCountersKernelDrain covers the one-interval-trailing edge
// case: when the last real simulation event lands strictly inside a
// window, the poller fires once more at the next boundary (seeing an
// empty queue, it stops), so the series trails the final event by at
// most one interval and the kernel always drains.
func TestPollCountersKernelDrain(t *testing.T) {
	k := sim.NewKernel()
	k.Schedule(60, func() {}) // last real event at cycle 60, inside (50, 75]
	var samples []sim.Time
	NewPollers(k).Poll(25, func(now sim.Time) { samples = append(samples, now) })
	end := k.Run(nil)
	if end != 75 {
		t.Fatalf("run ended at %d, want 75 (one trailing interval past the last event)", end)
	}
	want := []sim.Time{0, 25, 50, 75}
	if len(samples) != len(want) {
		t.Fatalf("samples = %v, want %v", samples, want)
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Fatalf("samples = %v, want %v", samples, want)
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("poller left %d events queued after drain", k.Pending())
	}
}

// TestPollersDoNotKeepEachOtherAlive runs two pollers of one set on
// different grids: each must stop within one of its own intervals of
// the last real event, exactly as it would alone, instead of mistaking
// the other's queued tick for simulation work.
func TestPollersDoNotKeepEachOtherAlive(t *testing.T) {
	k := sim.NewKernel()
	k.Schedule(60, func() {}) // last real event at cycle 60
	p := NewPollers(k)
	var a, b []sim.Time
	p.Poll(25, func(now sim.Time) { a = append(a, now) })
	p.Poll(40, func(now sim.Time) { b = append(b, now) })
	steps := 0
	end := k.Run(func() bool { steps++; return steps > 100 })
	if steps > 100 {
		t.Fatalf("kernel still busy after 100 events (clock %d): the pollers keep each other alive", end)
	}
	wantA, wantB := []sim.Time{0, 25, 50, 75}, []sim.Time{0, 40, 80}
	if !slices.Equal(a, wantA) || !slices.Equal(b, wantB) {
		t.Fatalf("samples = %v and %v, want %v and %v", a, b, wantA, wantB)
	}
	if k.Pending() != 0 {
		t.Fatalf("pollers left %d events queued after drain", k.Pending())
	}
}
