package cmp

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/fault"
	"tilesim/internal/obs"
)

func obsCfg() RunConfig {
	return RunConfig{
		App:           "FFT",
		RefsPerCore:   300,
		Seed:          11,
		Compression:   compress.Spec{Kind: "stride", LowOrderBytes: 2},
		Heterogeneous: true,
	}
}

// TestMetricsSnapshotAttached checks Run populates Result.Metrics with
// the full stack's metrics and that the acceptance invariant holds:
// the per-class latency breakdown components sum exactly to the
// end-to-end totals.
func TestMetricsSnapshotAttached(t *testing.T) {
	r, err := Run(obsCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) == 0 {
		t.Fatal("Result.Metrics empty")
	}
	for _, want := range []string{
		"sim.events", "sim.cycles",
		"net.msgs.requests", "net.hop_wait",
		"coh.l1.loads", "coh.mshr.residency",
		"mgr.compressible", "mgr.coverage",
	} {
		if _, ok := r.Metrics.Get(want); !ok {
			t.Errorf("metric %q missing from snapshot", want)
		}
	}

	// Per-link metrics exist and at least one link carried traffic.
	var linkFlits uint64
	for _, e := range r.Metrics {
		if strings.HasPrefix(e.Name, "net.link.") && strings.HasSuffix(e.Name, ".flits") {
			linkFlits += e.Metric.Count
		}
	}
	if linkFlits == 0 {
		t.Error("no link carried any flits")
	}

	// Exact breakdown: total == router+queue+wire+serialize per class,
	// and the request-class total matches the latency mean's sum.
	classes := []string{"requests", "responses", "coherence_commands",
		"coherence_replies", "replacements"}
	for _, slug := range classes {
		total := metric(r.Metrics, "net.breakdown."+slug+".total_cycles").Count
		parts := metric(r.Metrics, "net.breakdown."+slug+".router_cycles").Count +
			metric(r.Metrics, "net.breakdown."+slug+".queue_cycles").Count +
			metric(r.Metrics, "net.breakdown."+slug+".wire_cycles").Count +
			metric(r.Metrics, "net.breakdown."+slug+".serialize_cycles").Count
		if total != parts {
			t.Errorf("breakdown %s: total %d != components %d", slug, total, parts)
		}
		lat := metric(r.Metrics, "net.lat."+slug)
		if sum := lat.Mean * float64(lat.Count); uint64(sum+0.5) != total {
			t.Errorf("breakdown %s: total %d disagrees with latency sum %v", slug, total, sum)
		}
	}
}

// metric returns the metric named name in s, the zero Metric if s
// lacks it.
func metric(s obs.Snapshot, name string) obs.Metric {
	m, _ := s.Get(name)
	return m
}

// TestMetricsByteIdentical serializes the metrics of two same-seed
// runs and requires byte equality and valid JSON.
func TestMetricsByteIdentical(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		r, err := Run(obsCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Metrics.WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("same-seed metrics JSON differs between runs")
	}
	var parsed map[string]map[string]any
	if err := json.Unmarshal(bufs[0].Bytes(), &parsed); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
}

// TestMetricNamesStableOnEveryBranch builds each configuration twice,
// without running it, and requires the registry's metric names and the
// series' column names to come out identical and under one of the four
// component families, and every series column to be a registry name.
// The configurations reach every declaration branch: each link layout
// (the PW plane only exists under lpw and vlbpw), fault injection off
// and on, and a 256-tile slim network whose 7,680 directed links exceed
// the per-link family's cap. A name that formats a pointer differs
// between the two builds, and a nil reader panics at declaration.
func TestMetricNamesStableOnEveryBranch(t *testing.T) {
	dbrc := compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}
	cfgs := map[string]RunConfig{
		"slim256": {Compression: dbrc, Wiring: "vlb", Topology: "slim", Tiles: 256},
	}
	for _, wiring := range []string{"baseline", "vlb", "lpw", "vlbpw"} {
		cfgs[wiring] = RunConfig{Compression: dbrc, Wiring: wiring}
		cfgs[wiring+"-ber"] = RunConfig{Compression: dbrc, Wiring: wiring, Faults: fault.Config{BER: 1e-5}}
	}
	families := []string{"sim.", "net.", "coh.", "mgr."}
	for name, cfg := range cfgs {
		cfg.App, cfg.RefsPerCore, cfg.Seed, cfg.SeriesInterval = "FFT", 100, 1, 512
		t.Run(name, func(t *testing.T) {
			var names [2][]string
			for i := range names {
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				registry := sys.Registry().Names()
				columns := sys.startSeries(obs.NewPollers(sys.K)).Columns
				for _, c := range columns {
					if _, found := slices.BinarySearch(registry, c); !found {
						t.Errorf("series column %q is not a registry name", c)
					}
				}
				names[i] = append(registry, columns...)
			}
			if !slices.Equal(names[0], names[1]) {
				t.Fatal("two builds of one configuration register different metric or series names")
			}
			for _, n := range names[0] {
				if !slices.ContainsFunc(families, func(f string) bool { return strings.HasPrefix(n, f) }) {
					t.Errorf("name %q is outside the sim., net., coh. and mgr. families", n)
				}
			}
			// Each configuration must reach the branch it is here for.
			pw := cfg.Wiring == "lpw" || cfg.Wiring == "vlbpw"
			if slices.Contains(names[0], "net.plane.PW.flits") != pw {
				t.Errorf("PW-plane names present = %t, want %t", !pw, pw)
			}
			if slices.Contains(names[0], "net.fault.retries") != cfg.Faults.Enabled() {
				t.Errorf("fault names present = %t, want %t", !cfg.Faults.Enabled(), cfg.Faults.Enabled())
			}
			perLink := slices.ContainsFunc(names[0], func(n string) bool { return strings.HasPrefix(n, "net.link.") })
			if perLink != (cfg.Topology != "slim") {
				t.Errorf("per-link names present = %t on %d tiles of %s", perLink, cfg.tiles(), cfg.topologyName())
			}
		})
	}
}

// fingerprint collapses a Result into the quantities a tracer must not
// change: timing, message counts and energy. A traced run's whole
// Result differs by design (its counter poller adds kernel events to
// sim.events). Comparing float64 energy with == is deliberate: any
// feedback from observation into timing shows up here.
type fingerprint struct {
	execCycles uint64
	messages   uint64
	flits      uint64
	loads      uint64
	stores     uint64
	misses     uint64
	linkDynJ   float64
	linkStatJ  float64
	icJ        float64
}

func fingerprintOf(r Result) fingerprint {
	return fingerprint{
		execCycles: r.ExecCycles,
		messages:   r.Net.TotalMessages(),
		flits:      r.Net.TotalFlits,
		loads:      r.Loads,
		stores:     r.Stores,
		misses:     r.L1Misses,
		linkDynJ:   float64(r.Link.DynJ),
		linkStatJ:  float64(r.Link.StaticJ),
		icJ:        float64(r.InterconnectJ),
	}
}

// TestTracerDoesNotChangeResults attaches a tracer (with its counter
// poller) and requires the simulation fingerprint to match an
// untraced run: observation must never feed back into timing.
func TestTracerDoesNotChangeResults(t *testing.T) {
	plain, err := Run(obsCfg())
	if err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem(obsCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, 4)
	sys.SetTracer(tr)
	traced, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if fingerprintOf(plain) != fingerprintOf(traced) {
		t.Errorf("tracer changed the simulation:\n  plain:  %+v\n  traced: %+v",
			fingerprintOf(plain), fingerprintOf(traced))
	}

	// The trace itself is a valid Chrome trace-event document with all
	// three processes and the sampled counter tracks.
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace invalid JSON: %v", err)
	}
	seen := map[string]int{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Ph]++
	}
	for _, ph := range []string{"M", "b", "e", "X", "C"} {
		if seen[ph] == 0 {
			t.Errorf("trace has no %q events (got %v)", ph, seen)
		}
	}

	// Sampling stride 4: lifecycle spans cover ~1/4 of messages.
	msgs := traced.Net.TotalMessages() // window may differ from total; compare loosely
	if b := seen["b"]; uint64(b) > msgs || b == 0 {
		t.Errorf("sampled %d lifecycle spans of %d messages", b, msgs)
	}
}

// TestTraceByteIdentical requires two same-seed traced runs to emit
// byte-identical trace files: nothing wall-clock may leak in.
func TestTraceByteIdentical(t *testing.T) {
	run := func() []byte {
		sys, err := NewSystem(obsCfg())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf, 8)
		sys.SetTracer(tr)
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("same-seed traces differ byte-wise")
	}
}

// TestRequestPercentilesBracketMean sanity-checks the clamped
// histogram percentiles surfaced in Result.
func TestRequestPercentilesBracketMean(t *testing.T) {
	r, err := Run(obsCfg())
	if err != nil {
		t.Fatal(err)
	}
	lat := metric(r.Metrics, "net.lat.requests")
	if r.RequestLatencyP50 < lat.Min || r.RequestLatencyP50 > lat.Max {
		t.Errorf("p50 %v outside [%v, %v]", r.RequestLatencyP50, lat.Min, lat.Max)
	}
	if r.RequestLatencyP99 < r.RequestLatencyP50 || r.RequestLatencyP99 > lat.Max {
		t.Errorf("p99 %v outside [p50 %v, max %v]", r.RequestLatencyP99, r.RequestLatencyP50, lat.Max)
	}
	if hist, ok := r.Metrics.Get("net.lat.requests.hist"); !ok || hist.P50 != r.RequestLatencyP50 {
		t.Errorf("snapshot p50 %v disagrees with Result %v", hist.P50, r.RequestLatencyP50)
	}
}

// TestTraceAndSeriesTogether attaches both time-resolved sinks, whose
// pollers share one kernel. The run must finish, its trace must equal
// the trace-only run's byte for byte, and its series must equal the
// series-only run's in every column but sim.events, which counts the
// trace poller's ticks too (the bookkeeping exception of DESIGN.md
// §10.5).
func TestTraceAndSeriesTogether(t *testing.T) {
	cfg := obsCfg()
	cfg.SeriesInterval = 512
	traceOnly := cfg
	traceOnly.SeriesInterval = 0
	wantTrace, _ := tracedRun(t, traceOnly, 0)
	seriesOnly, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	gotTrace, both := tracedRun(t, cfg, 2*len(wantTrace))
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("trace with a series attached differs from the trace-only run (%d vs %d bytes)",
			len(gotTrace), len(wantTrace))
	}
	got, want := both.Series, seriesOnly.Series
	if !slices.Equal(got.Columns, want.Columns) || !slices.Equal(got.Times, want.Times) {
		t.Fatalf("series shape differs: %d columns x %d rows, want %d x %d",
			len(got.Columns), got.Rows(), len(want.Columns), want.Rows())
	}
	for i := 0; i < want.Rows(); i++ {
		for j, col := range want.Columns {
			if col != "sim.events" && got.Row(i)[j] != want.Row(i)[j] {
				t.Errorf("row %d (cycle %d) column %s = %g, want %g",
					i, want.Times[i], col, got.Row(i)[j], want.Row(i)[j])
			}
		}
	}
}

// tracedRun runs cfg with a tracer sampling every 8th message and
// returns the trace and the result. A positive limit bounds the trace
// in bytes: a run whose pollers never stop then fails instead of
// growing its trace until memory runs out.
func tracedRun(t *testing.T, cfg RunConfig, limit int) ([]byte, Result) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &limitWriter{limit: limit}
	tr := obs.NewTracer(w, 8)
	sys.SetTracer(tr)
	defer func() {
		if p := recover(); p != nil {
			if p != errTraceLimit {
				panic(p)
			}
			t.Fatalf("the trace outgrew %d bytes, twice the trace-only run: the run's pollers never stopped", limit)
		}
	}()
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return w.buf.Bytes(), r
}

var errTraceLimit = errors.New("trace limit exceeded")

// limitWriter buffers a trace and panics with errTraceLimit once a
// write would take it past limit bytes (no limit when limit is 0).
type limitWriter struct {
	buf   bytes.Buffer
	limit int
}

func (w *limitWriter) Write(p []byte) (int, error) {
	if w.limit > 0 && w.buf.Len()+len(p) > w.limit {
		panic(errTraceLimit)
	}
	return w.buf.Write(p)
}
