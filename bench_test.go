package tilesim

// One benchmark per paper table and figure. Each bench regenerates its
// artifact end to end — workload generation, full-system simulation,
// energy accounting — at a reduced scale, and reports the headline
// series through b.ReportMetric so `go test -bench . -benchmem` prints
// the rows the paper reports. Full-scale numbers live in EXPERIMENTS.md
// (generated by cmd/figures).

import (
	"io"
	"testing"
	"time"

	"tilesim/internal/cacti"
	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/figures"
	"tilesim/internal/noc"
	"tilesim/internal/obs"
	"tilesim/internal/sweep"
	"tilesim/internal/wire"
)

// benchScale is small enough for -bench . to finish in minutes on one
// core while still exercising every mechanism.
func benchScale() figures.Scale {
	return figures.Scale{RefsPerCore: 2000, WarmupRefs: 800, Seed: 1}
}

func BenchmarkTable1CompressionHardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := cacti.Table1Rows()
		if len(rows) != 4 {
			b.Fatal("table 1 rows")
		}
		for _, r := range rows {
			if _, err := cacti.ModelRow(r.Scheme); err != nil {
				b.Fatal(err)
			}
		}
	}
	row, _ := cacti.ModelRow("4-entry DBRC")
	b.ReportMetric(row.AreaMM2, "model-mm2/4entryDBRC")
	b.ReportMetric(cacti.Table1Rows()[0].AreaMM2, "paper-mm2/4entryDBRC")
}

func BenchmarkTable2WireCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, k := range wire.Table2Kinds() {
			_ = wire.ModelRelLatency(k)
		}
	}
	b.ReportMetric(wire.ModelRelLatency(wire.L8X), "model-rel-latency/L-wire")
	b.ReportMetric(wire.Lookup(wire.L8X).RelLatency, "paper-rel-latency/L-wire")
}

func BenchmarkTable3VLWires(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, k := range wire.Table3Kinds() {
			_ = wire.ModelRelLatency(k)
			_ = wire.LatencyCycles(k)
		}
	}
	b.ReportMetric(wire.ModelRelLatency(wire.VL3B), "model-rel-latency/VL3B")
	b.ReportMetric(wire.Lookup(wire.VL3B).RelLatency, "paper-rel-latency/VL3B")
}

func BenchmarkFigure2Coverage(b *testing.B) {
	var dbrc4, stride1 float64
	for i := 0; i < b.N; i++ {
		cells, _, err := figures.Figure2(nil, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		dbrc4 = figures.Average(cells, "4-entry DBRC (2B LO)", coverage)
		stride1 = figures.Average(cells, "1-byte Stride", coverage)
	}
	b.ReportMetric(dbrc4, "avg-coverage/4entryDBRC-2B")
	b.ReportMetric(stride1, "avg-coverage/1B-stride")
}

func BenchmarkFigure5MessageMix(b *testing.B) {
	var reqRsp, repl float64
	for i := 0; i < b.N; i++ {
		cells, _, err := figures.Figure5(nil, benchScale())
		if err != nil {
			b.Fatal(err)
		}
		reqRsp = figures.Average(cells, "baseline", func(c figures.Cell) float64 {
			return classShare(c, noc.ClassRequest) + classShare(c, noc.ClassResponse)
		})
		repl = figures.Average(cells, "baseline", func(c figures.Cell) float64 {
			return classShare(c, noc.ClassReplacement)
		})
	}
	b.ReportMetric(reqRsp, "avg-frac/requests+responses")
	b.ReportMetric(repl, "avg-frac/replacements")
}

// coverage selects a cell's compression coverage.
func coverage(c figures.Cell) float64 { return c.Coverage }

// classShare is one message class's share of a cell's interconnect
// messages.
func classShare(c figures.Cell, class noc.Class) float64 {
	return float64(c.Net.Messages[class]) / float64(c.Net.TotalMessages())
}

// figure67 runs the shared Figure 6/7 sweep once per iteration and
// reports the requested averages.
func figure67(b *testing.B, report func([]figures.Cell)) {
	b.Helper()
	var cells []figures.Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = figures.Figure67(nil, benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	report(cells)
}

func BenchmarkFigure6ExecutionTime(b *testing.B) {
	figure67(b, func(cells []figures.Cell) {
		b.ReportMetric(figures.Average(cells, "4-entry DBRC (2B LO)", figures.NormTime), "norm-time/4entryDBRC-2B")
		b.ReportMetric(figures.Average(cells, "perfect (2B LO) [line]", figures.NormTime), "norm-time/perfect-2B")
	})
}

func BenchmarkFigure6LinkED2P(b *testing.B) {
	figure67(b, func(cells []figures.Cell) {
		b.ReportMetric(figures.Average(cells, "4-entry DBRC (2B LO)", figures.NormLinkED2P), "norm-linkED2P/4entryDBRC-2B")
		b.ReportMetric(figures.Average(cells, "2-byte Stride", figures.NormLinkED2P), "norm-linkED2P/2B-stride")
	})
}

func BenchmarkFigure7FullCMPED2P(b *testing.B) {
	figure67(b, func(cells []figures.Cell) {
		b.ReportMetric(figures.Average(cells, "4-entry DBRC (2B LO)", figures.NormChipED2P), "norm-chipED2P/4entryDBRC-2B")
		b.ReportMetric(figures.Average(cells, "64-entry DBRC (2B LO)", figures.NormChipED2P), "norm-chipED2P/64entryDBRC-2B")
	})
}

// BenchmarkSweepThroughput runs one small configuration grid through
// the sweep engine serially and with the default parallel worker pool,
// uncached, and reports both wall clocks plus the speedup ratio. The
// ratio approaches min(jobs, NumCPU) on multi-core machines and is ~1x
// on one core (the engine's own overhead is noise against simulation
// cost).
func BenchmarkSweepThroughput(b *testing.B) {
	var jobs []cmp.RunConfig
	for _, app := range []string{"MP3D", "FFT", "Water-nsq", "Radix"} {
		for _, spec := range []compress.Spec{
			{Kind: "none"},
			{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		} {
			cfg := cmp.RunConfig{App: app, RefsPerCore: 1000, Seed: 1, Compression: spec}
			cfg.Heterogeneous = spec.Kind != "none"
			jobs = append(jobs, cfg)
		}
	}
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		s := time.Now()
		if err := sweep.Err((&sweep.Runner{Jobs: 1}).Run(jobs)); err != nil {
			b.Fatal(err)
		}
		serial += time.Since(s)
		s = time.Now()
		if err := sweep.Err((&sweep.Runner{}).Run(jobs)); err != nil {
			b.Fatal(err)
		}
		parallel += time.Since(s)
	}
	b.ReportMetric(serial.Seconds()/float64(b.N), "s-serial/sweep")
	b.ReportMetric(parallel.Seconds()/float64(b.N), "s-parallel/sweep")
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-x")
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// memory references per wall second on the densest workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := cmp.Run(cmp.RunConfig{
			App:           "MP3D",
			RefsPerCore:   2000,
			Seed:          1,
			Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
			Heterogeneous: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.ExecCycles == 0 {
			b.Fatal("no progress")
		}
	}
}

// BenchmarkObsOverhead quantifies the observability layer's cost on
// the BenchmarkSimulatorThroughput configuration (DESIGN.md §10; the
// 2026-08 measurement put disabled hooks at -1.8% wall against the
// pre-obs seed, within noise):
//
//   - disabled: hooks compiled in but no tracer attached — every hook
//     is one nil check, the registry snapshot runs once at end of run.
//     This must stay within 2% of the pre-obs seed baseline.
//   - traced: full lifecycle tracing (every message) to io.Discard —
//     the worst-case instrumented cost.
func BenchmarkObsOverhead(b *testing.B) {
	cfg := cmp.RunConfig{
		App:           "MP3D",
		RefsPerCore:   2000,
		Seed:          1,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	}
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := cmp.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(r.Metrics) == 0 {
				b.Fatal("no metrics snapshot")
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys, err := cmp.NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tr := obs.NewTracer(io.Discard, 1)
			sys.SetTracer(tr)
			if _, err := sys.Run(); err != nil {
				b.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSeriesOverhead quantifies the epoch time series' cost on
// the same configuration (DESIGN.md §10.3; the 2026-08 measurement put
// sampling every 1024 cycles at +9.2% wall):
//
//   - disabled: SeriesInterval zero — the series is never built, so
//     this is the cost every non-observability run pays (it must stay
//     within 2% of the series-free baseline, i.e. be the baseline).
//   - sampling: one sample of the full column set (per-link columns
//     included) every 1024 cycles, accumulated in memory.
func BenchmarkSeriesOverhead(b *testing.B) {
	cfg := cmp.RunConfig{
		App:           "MP3D",
		RefsPerCore:   2000,
		Seed:          1,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	}
	run := func(b *testing.B, cfg cmp.RunConfig, wantSeries bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := cmp.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if got := r.Series != nil; got != wantSeries {
				b.Fatalf("series present = %v, want %v", got, wantSeries)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, cfg, false) })
	b.Run("sampling", func(b *testing.B) {
		scfg := cfg
		scfg.SeriesInterval = 1024
		run(b, scfg, true)
	})
}
