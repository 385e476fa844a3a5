package cmp

import (
	"bytes"
	"strings"
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/fault"
)

// seriesConfigs are the cross-product the determinism tests run: a
// fault-free dense mesh and a high-BER torus (two topologies, with and
// without injection), both with compression + heterogeneous wiring so
// every series family (planes, coverage, retries) has live columns.
func seriesConfigs() map[string]RunConfig {
	return map[string]RunConfig{
		"mesh-faultfree": {
			App: "FFT", RefsPerCore: 300, Seed: 3,
			Compression:    compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
			Heterogeneous:  true,
			SeriesInterval: 512,
		},
		"torus-highber": {
			App: "MP3D", RefsPerCore: 300, Seed: 5,
			Topology:       "torus",
			Compression:    compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
			Heterogeneous:  true,
			SeriesInterval: 512,
			Faults:         fault.Config{BER: 1e-5, RetryLimit: 64},
		},
	}
}

// TestSeriesByteIdentity runs every config twice with the same seed
// and asserts the serialized series files are byte-identical — the
// acceptance contract behind `tilesim -series-out` (CI re-runs this
// under -race).
func TestSeriesByteIdentity(t *testing.T) {
	for name, cfg := range seriesConfigs() {
		t.Run(name, func(t *testing.T) {
			r1, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Series == nil || r2.Series == nil {
				t.Fatal("SeriesInterval > 0 produced no series")
			}
			if r1.Series.Rows() < 2 {
				t.Fatalf("series has %d rows; want at least baseline + one window", r1.Series.Rows())
			}
			var csv1, csv2, js1, js2 bytes.Buffer
			if err := r1.Series.WriteCSV(&csv1); err != nil {
				t.Fatal(err)
			}
			if err := r2.Series.WriteCSV(&csv2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
				t.Error("same-seed series CSVs differ")
			}
			if err := r1.Series.WriteJSON(&js1); err != nil {
				t.Fatal(err)
			}
			if err := r2.Series.WriteJSON(&js2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js1.Bytes(), js2.Bytes()) {
				t.Error("same-seed series JSONs differ")
			}
		})
	}
}

// TestSeriesNoSimulationFeedback asserts attaching the series changes
// no simulated outcome: a run with sampling enabled reports the same
// execution time, traffic, energy and metrics as one without. The only
// legitimate differences are the series itself and drain-clock
// bookkeeping: the sample events consume kernel event slots
// (sim.events) and the trailing sample can move the kernel clock at
// drain (sim.cycles, and the net.link.*.util gauges, which divide busy
// cycles by the clock at snapshot time) — none of which feeds back
// into cores, caches or the network.
func TestSeriesNoSimulationFeedback(t *testing.T) {
	for name, cfg := range seriesConfigs() {
		t.Run(name, func(t *testing.T) {
			with, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plain := cfg
			plain.SeriesInterval = 0
			without, err := Run(plain)
			if err != nil {
				t.Fatal(err)
			}
			if without.Series != nil {
				t.Error("SeriesInterval == 0 produced a series")
			}

			if with.ExecCycles != without.ExecCycles {
				t.Errorf("series changed ExecCycles: %d vs %d", with.ExecCycles, without.ExecCycles)
			}
			if with.Net != without.Net {
				t.Errorf("series changed network summary:\n  with:    %+v\n  without: %+v", with.Net, without.Net)
			}
			if with.Coverage != without.Coverage || with.VLFraction != without.VLFraction {
				t.Error("series changed compression/steering results")
			}
			if with.Link != without.Link || with.InterconnectJ != without.InterconnectJ {
				t.Error("series changed energy results")
			}

			// Metric-level: everything except the drain-clock bookkeeping
			// must match exactly.
			for _, e := range without.Metrics {
				if e.Name == "sim.events" || e.Name == "sim.cycles" || strings.HasSuffix(e.Name, ".util") {
					continue
				}
				if got, _ := with.Metrics.Get(e.Name); got != e.Metric {
					t.Errorf("series changed metric %s: %+v vs %+v", e.Name, got, e.Metric)
				}
			}
			if len(with.Metrics) != len(without.Metrics) {
				t.Errorf("series changed metric count: %d vs %d", len(with.Metrics), len(without.Metrics))
			}
		})
	}
}

// TestSeriesFinishClosesAtRunEnd runs with a sampling interval that
// does not divide the execution window and asserts the Finish contract
// end-to-end: the table's last row lands exactly on ExecCycles (no
// mid-drain rows survive), and every delta column that shadows a
// registry counter sums to that counter's end-of-run Snapshot total —
// the final partial epoch accounts for every increment the grid missed.
func TestSeriesFinishClosesAtRunEnd(t *testing.T) {
	for name, cfg := range seriesConfigs() {
		cfg.SeriesInterval = 509 // prime: never divides the window
		t.Run(name, func(t *testing.T) {
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := r.Series
			if d.Rows() < 2 {
				t.Fatalf("series has %d rows", d.Rows())
			}
			if r.ExecCycles%uint64(cfg.SeriesInterval) == 0 {
				t.Fatalf("interval %d divides the %d-cycle window; the test needs a partial epoch", cfg.SeriesInterval, r.ExecCycles)
			}
			last := d.Times[d.Rows()-1]
			if last != r.ExecCycles {
				t.Errorf("last row at cycle %d, want the execution end %d", last, r.ExecCycles)
			}
			for _, ts := range d.Times {
				if ts > r.ExecCycles {
					t.Errorf("row at cycle %d lies beyond the execution end %d", ts, r.ExecCycles)
				}
			}
			// Every series column that shares a name with a registry
			// counter is a delta view of the same underlying count, so
			// its column sum must equal the snapshot total.
			checked := 0
			for i, colName := range d.Columns {
				m, ok := r.Metrics.Get(colName)
				if !ok || m.Type != "counter" {
					continue
				}
				var sum float64
				for row := 0; row < d.Rows(); row++ {
					sum += d.Row(row)[i]
				}
				if sum != float64(m.Count) {
					t.Errorf("column %s sums to %v, want the snapshot total %d", colName, sum, m.Count)
				}
				checked++
			}
			if checked < 5 {
				t.Fatalf("only %d counter-backed columns checked; the cross-check lost its teeth", checked)
			}
		})
	}
}

// TestSeriesColumnsMatchConfig spot-checks that the assembled series
// carries the families the config implies: plane and coverage columns
// always, fault columns only under injection.
func TestSeriesColumnsMatchConfig(t *testing.T) {
	cfgs := seriesConfigs()
	has := func(d []string, name string) bool {
		for _, c := range d {
			if c == name {
				return true
			}
		}
		return false
	}
	free, err := Run(cfgs["mesh-faultfree"])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sim.events", "mgr.coverage", "net.plane.VL.flits", "net.inflight", "coh.mshr.live", "net.link.00->01.B.flits", "net.link.00->01.B.util"} {
		if !has(free.Series.Columns, want) {
			t.Errorf("fault-free series missing column %s", want)
		}
	}
	if has(free.Series.Columns, "net.fault.retries") {
		t.Error("fault-free series carries fault columns")
	}
	faulty, err := Run(cfgs["torus-highber"])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"net.fault.retries", "net.fault.crc_errors", "mgr.failover_msgs"} {
		if !has(faulty.Series.Columns, want) {
			t.Errorf("high-BER series missing column %s", want)
		}
	}
}
