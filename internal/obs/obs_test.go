package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"tilesim/internal/sim"
	"tilesim/internal/stats"
)

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()

	var c stats.Counter
	c.Add(42)
	r.Counter("net.msgs", c.Value)

	r.Gauge("net.level", func() float64 { return 0.375 })

	var busy stats.Counter
	busy.Add(30)
	r.Sampled().Utilization("net.util", busy.Value)

	num, den := uint64(3), uint64(4)
	r.Sampled().Ratio("mgr.coverage", func() uint64 { return num }, func() uint64 { return den })

	var m stats.Mean
	m.Observe(10)
	m.Observe(20)
	r.Mean("lat.mean", &m)

	h := stats.NewHistogram(16, 2)
	h.Observe(3)
	h.Observe(5)
	r.Histogram("lat.hist", h)

	if n := len(r.Names()); n != 6 {
		t.Fatalf("%d names, want 6", n)
	}

	snap := r.Snapshot(120)
	if got := get(snap, "net.msgs"); got.Type != "counter" || got.Count != 42 {
		t.Errorf("counter metric = %+v", got)
	}
	if got := get(snap, "net.level"); got.Type != "gauge" || got.Value != 0.375 {
		t.Errorf("gauge metric = %+v", got)
	}
	// A utilization reads as a gauge: busy cycles over the clock.
	if got := get(snap, "net.util"); got.Type != "gauge" || got.Value != 0.25 {
		t.Errorf("utilization metric = %+v, want a gauge of 30/120", got)
	}
	// A ratio reads as a gauge: num/den over the run.
	if got := get(snap, "mgr.coverage"); got.Type != "gauge" || got.Value != 0.75 {
		t.Errorf("ratio metric = %+v, want a gauge of 3/4", got)
	}
	if got := get(snap, "lat.mean"); got.Type != "mean" || got.Count != 2 ||
		got.Mean != 15 || got.Min != 10 || got.Max != 20 {
		t.Errorf("mean metric = %+v", got)
	}
	if got := get(snap, "lat.hist"); got.Type != "histogram" || got.Count != 2 ||
		got.Min != 3 || got.Max != 5 || got.P99 != 5 {
		t.Errorf("histogram metric = %+v", got)
	}
	// Both scalar ratios read 0 before their clock or denominator moves.
	den = 0
	if snap := r.Snapshot(0); get(snap, "net.util").Value != 0 || get(snap, "mgr.coverage").Value != 0 {
		t.Errorf("zero-denominator readings = %+v, %+v, want 0", get(snap, "net.util"), get(snap, "mgr.coverage"))
	}

	// Registry is pull-based: later component updates show up in a new
	// snapshot without re-registration.
	c.Inc()
	if got := get(r.Snapshot(120), "net.msgs"); got.Count != 43 {
		t.Errorf("pull-through counter = %d, want 43", got.Count)
	}
	// ... but an existing snapshot is a frozen copy.
	if get(snap, "net.msgs").Count != 42 {
		t.Error("old snapshot mutated by later counter update")
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha"} {
		r.Counter(name, func() uint64 { return 0 })
	}
	r.Sampled().Counter("mid", func() uint64 { return 0 })
	if names, want := r.Names(), []string{"alpha", "mid", "zeta"}; !slices.Equal(names, want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
}

// get returns the metric named name in s, the zero Metric if s lacks
// it.
func get(s Snapshot, name string) Metric {
	m, _ := s.Get(name)
	return m
}

// TestRegistryOrder checks the registry's one sorted order. Names, the
// snapshot and the series columns list the names by their bytes, which
// is the order encoding/json gives map keys, and the snapshot's
// entries hold the declared strings. A second Snapshot allocates only
// its slice, and a name declared after a read is sorted in by the next
// one.
func TestRegistryOrder(t *testing.T) {
	r := NewRegistry()
	declared := []string{"zeta", "Zeta", "a.b", "a-b", "a\xff", "\u00e9", "a", ""}
	byName := map[string]Metric{}
	for i, name := range declared {
		v := r.Counter
		if i%2 == 1 {
			v = r.Sampled().Counter
		}
		v(name, func() uint64 { return uint64(i) })
		byName[name] = Metric{Type: "counter", Count: uint64(i)}
	}
	want := slices.Clone(declared)
	slices.Sort(want)
	if names := r.Names(); !slices.Equal(names, want) {
		t.Fatalf("Names = %q, want %q", names, want)
	}
	snap := r.Snapshot(0)
	for i, e := range snap {
		if e.Name != want[i] || e.Metric != byName[e.Name] {
			t.Fatalf("entry %d = %q %+v, want %q %+v", i, e.Name, e.Metric, want[i], byName[want[i]])
		}
		j := slices.Index(declared, e.Name)
		if e.Name != "" && unsafe.StringData(e.Name) != unsafe.StringData(declared[j]) {
			t.Errorf("entry %q copies its declared name", e.Name)
		}
	}
	if got, err := json.Marshal(snap); err != nil || !bytes.Equal(got, must(json.Marshal(byName))) {
		t.Fatalf("snapshot encodes as %s, %v; encoding/json writes the map as %s", got, err, must(json.Marshal(byName)))
	}
	if cols := NewSeries(r, 1).data.Columns; !slices.Equal(cols, []string{"", "Zeta", "a-b", "\u00e9"}) {
		t.Errorf("series columns = %q, want the sampled names in byte order", cols)
	}
	if allocs := testing.AllocsPerRun(10, func() { r.Snapshot(0) }); allocs != 1 {
		t.Errorf("a second Snapshot made %v allocations, want 1 (its slice)", allocs)
	}

	r.Gauge("b", func() float64 { return 0.5 })
	r.Sampled().Counter("0", func() uint64 { return 9 })
	want = slices.Insert(want, 1, "0")
	want = slices.Insert(want, slices.Index(want, "a\xff")+1, "b")
	snap = r.Snapshot(0)
	if names := r.Names(); !slices.Equal(names, want) {
		t.Fatalf("after two more declarations, Names = %q, want %q", names, want)
	}
	if len(snap) != len(want) || get(snap, "b").Value != 0.5 || get(snap, "0").Count != 9 {
		t.Fatalf("after two more declarations, snapshot = %+v", snap)
	}
}

// must returns b, for an encoding that cannot fail.
func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// TestRegistryDuplicatePanics declares one name twice through every
// pair of the plain and sampled views: each of the registry's readers
// (Snapshot, NewSeries, Names) must panic before producing anything,
// naming the quantity. Every kind with a nil reader, through both
// views, must panic at declaration.
func TestRegistryDuplicatePanics(t *testing.T) {
	expectPanic := func(name, want string, fn func(r *Registry)) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) || !strings.Contains(msg, `"x"`) {
				t.Errorf("%s: panic = %q, want mention of %q and the name", name, msg, want)
			}
		}()
		fn(NewRegistry())
	}
	zero := func() uint64 { return 0 }
	views := map[string]func(*Registry) *Registry{
		"plain":   func(r *Registry) *Registry { return r },
		"sampled": (*Registry).Sampled,
	}
	readers := map[string]func(*Registry){
		"Snapshot":  func(r *Registry) { r.Snapshot(0) },
		"NewSeries": func(r *Registry) { NewSeries(r, 1) },
		"Names":     func(r *Registry) { r.Names() },
	}
	for first, v1 := range views {
		for second, v2 := range views {
			for reader, read := range readers {
				expectPanic(first+" then "+second+", "+reader, "duplicate metric name", func(r *Registry) {
					v1(r).Counter("x", zero)
					r.Counter("y", zero)
					v2(r).Gauge("x", func() float64 { return 0 })
					read(r)
				})
				// The second declaration comes after a read that
				// sorted the first.
				expectPanic(first+", "+reader+", then "+second, "duplicate metric name", func(r *Registry) {
					v1(r).Counter("x", zero)
					r.Counter("y", zero)
					r.Snapshot(0)
					v2(r).Gauge("x", func() float64 { return 0 })
					read(r)
				})
			}
		}
		expectPanic(first+" nil counter", "nil reader", func(r *Registry) { v1(r).Counter("x", nil) })
		expectPanic(first+" nil gauge", "nil reader", func(r *Registry) { v1(r).Gauge("x", nil) })
		expectPanic(first+" nil utilization", "nil reader", func(r *Registry) { v1(r).Utilization("x", nil) })
		expectPanic(first+" nil ratio num", "nil reader", func(r *Registry) { v1(r).Ratio("x", nil, zero) })
		expectPanic(first+" nil ratio den", "nil reader", func(r *Registry) { v1(r).Ratio("x", zero, nil) })
	}
	expectPanic("nil mean", "nil reader", func(r *Registry) { r.Mean("x", nil) })
	expectPanic("nil histogram", "nil reader", func(r *Registry) { r.Histogram("x", nil) })
}

func TestSnapshotWriteJSON(t *testing.T) {
	r := NewRegistry()
	var c stats.Counter
	c.Add(7)
	r.Counter("b.count", c.Value)
	r.Gauge("a.gauge", func() float64 { return 2.5 })
	snap := r.Snapshot(0)

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
		{"a.counter", Metric{Type: "counter", Count: 7}},
		{"b.gauge", Metric{Type: "gauge", Value: 2.5}},
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, snap) {
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
