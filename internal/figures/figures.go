// Package figures regenerates every table and figure of the paper's
// evaluation (the experiment index of DESIGN.md):
//
//	Table 1  - compression-hardware area/power (internal/cacti)
//	Table 2  - wire catalog, B/L/PW wires (internal/wire)
//	Table 3  - VL-Wire catalog (internal/wire)
//	Figure 2 - address-compression coverage per application/configuration
//	Figure 5 - message-class breakdown on the interconnect
//	Figure 6 - normalized execution time (top) and link ED^2P (bottom)
//	Figure 7 - normalized full-CMP ED^2P
//
// Every function returns a stats.Table whose rows mirror the series the
// paper reports, plus the raw series for programmatic checks. Scale
// selects run length: paper-shape results want Full; smoke tests and
// benchmarks use Quick.
//
// Every simulation-driven function takes a *sweep.Runner as its first
// argument and submits its whole grid as one batch, so the runs fan out
// over the runner's worker pool and duplicate configurations (within a
// figure, across figures sharing the runner, and across invocations
// sharing its disk cache) simulate once. nil selects the default
// engine: parallel over GOMAXPROCS workers, uncached.
package figures

import (
	"fmt"

	"tilesim/internal/cacti"
	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/noc"
	"tilesim/internal/stats"
	"tilesim/internal/sweep"
	"tilesim/internal/wire"
	"tilesim/internal/workload"
)

// Scale sets the simulation length of the workload-driven experiments.
type Scale struct {
	RefsPerCore int
	WarmupRefs  int
	Seed        int64
	// SeriesInterval, when positive, samples an epoch time series every
	// that many cycles in every cell of every figure (cmp.RunConfig's
	// knob, DESIGN.md §10.3). cmd/figures surfaces it as -series-interval
	// and writes the per-cell series next to the metrics sidecars.
	SeriesInterval int
}

// apply stamps the scale's run-length and sampling knobs onto a
// hand-built configuration. Every figure routes its configs through
// here (directly or via job), so a scale knob added once reaches every
// cell.
func (s Scale) apply(cfg cmp.RunConfig) cmp.RunConfig {
	cfg.RefsPerCore, cfg.WarmupRefs, cfg.Seed = s.RefsPerCore, s.WarmupRefs, s.Seed
	cfg.SeriesInterval = s.SeriesInterval
	return cfg
}

// job binds an (application, scheme) pair to this scale on the
// baseline wiring; callers flip wiring knobs on the returned config.
func (s Scale) job(app string, spec compress.Spec) cmp.RunConfig {
	return s.apply(cmp.RunConfig{App: app, Compression: spec})
}

// defaulted maps a nil runner to the default engine.
func defaulted(r *sweep.Runner) *sweep.Runner {
	if r == nil {
		return &sweep.Runner{}
	}
	return r
}

// Quick is the smoke-test scale (~seconds per figure).
func Quick() Scale { return Scale{RefsPerCore: 2500, WarmupRefs: 1000, Seed: 1} }

// Default is the reporting scale used by cmd/figures and EXPERIMENTS.md.
func Default() Scale { return Scale{RefsPerCore: 16000, WarmupRefs: 8000, Seed: 1} }

// Apps returns the application list (Table 4 order).
func Apps() []string { return workload.AppNames() }

// Table1 renders the compression-hardware cost table.
func Table1() *stats.Table {
	t := stats.NewTable("Compression Scheme", "Size (Bytes)", "Area (mm^2)", "Area %core",
		"Max Dyn Power (W)", "Dyn %core", "Static Power (mW)", "Static %core")
	for _, r := range cacti.Table1Rows() {
		t.AddRow(r.Scheme,
			fmt.Sprintf("%d", r.SizeBytes),
			fmt.Sprintf("%.4f", r.AreaMM2),
			fmt.Sprintf("%.2f%%", r.AreaPct),
			fmt.Sprintf("%.4f", r.MaxDynPowerW),
			fmt.Sprintf("%.2f%%", r.MaxDynPct),
			fmt.Sprintf("%.2f", r.StaticPowerW*1e3),
			fmt.Sprintf("%.2f%%", r.StaticPct))
	}
	return t
}

// Table2 renders the engineered-wire catalog (B/L/PW rows).
func Table2() *stats.Table {
	return wireTable(wire.Table2Kinds())
}

// Table3 renders the VL-Wire catalog.
func Table3() *stats.Table {
	return wireTable(wire.Table3Kinds())
}

func wireTable(kinds []wire.Kind) *stats.Table {
	t := stats.NewTable("Wire Type", "Relative Latency", "Relative Area",
		"Dyn Power (W/m, x alpha)", "Static Power (W/m)", "5mm Link (cycles)", "RC-Model RelLat")
	for _, k := range kinds {
		c := wire.Lookup(k)
		t.AddRow(k.String(),
			fmt.Sprintf("%.2fx", c.RelLatency),
			fmt.Sprintf("%.1fx", c.RelArea),
			fmt.Sprintf("%.2f", c.DynPowerWPerM),
			fmt.Sprintf("%.4f", c.StaticWPerM),
			fmt.Sprintf("%d", wire.LatencyCycles(k)),
			fmt.Sprintf("%.2fx", wire.ModelRelLatency(k)))
	}
	return t
}

// CoverageResult is one Figure 2 cell.
type CoverageResult struct {
	App      string
	Scheme   string
	Coverage float64
}

// Figure2 measures address-compression coverage for every application
// under every Figure 2 configuration. The runs use the baseline
// interconnect (coverage is a property of the address streams, not the
// wires), matching the paper's standalone coverage study.
func Figure2(r *sweep.Runner, scale Scale) ([]CoverageResult, *stats.Table, error) {
	r = defaulted(r)
	specs := compress.Figure2Specs()
	apps := Apps()
	// Heterogeneous wiring is irrelevant for coverage, but the
	// compressed sizes must be legal for the VL width, so run on the
	// baseline link and compress only logically.
	jobs := make([]cmp.RunConfig, 0, len(apps)*len(specs))
	for _, app := range apps {
		for _, spec := range specs {
			jobs = append(jobs, scale.job(app, spec))
		}
	}
	jrs := r.Run(jobs)
	if err := sweep.Err(jrs); err != nil {
		return nil, nil, fmt.Errorf("figure 2: %w", err)
	}
	var results []CoverageResult
	t := makeAppTable(labelsOf(specs))
	i := 0
	for _, app := range apps {
		row := []string{app}
		for _, spec := range specs {
			cov := jrs[i].Result.Coverage
			i++
			results = append(results, CoverageResult{App: app, Scheme: spec.Label(), Coverage: cov})
			row = append(row, fmt.Sprintf("%.2f", cov))
		}
		t.AddRow(row...)
	}
	return results, t, nil
}

// MixResult is one Figure 5 bar.
type MixResult struct {
	App      string
	Fraction [noc.NumClasses]float64
	// ShortWithAddr is the fraction of messages that are short and carry
	// a block address (the compressible targets the text calls out).
	ShortWithAddr float64
}

// Figure5 measures the message-class breakdown on the baseline
// interconnect.
func Figure5(runner *sweep.Runner, scale Scale) ([]MixResult, *stats.Table, error) {
	runner = defaulted(runner)
	apps := Apps()
	jobs := make([]cmp.RunConfig, 0, len(apps))
	for _, app := range apps {
		jobs = append(jobs, scale.job(app, compress.Spec{Kind: "none"}))
	}
	jrs := runner.Run(jobs)
	if err := sweep.Err(jrs); err != nil {
		return nil, nil, fmt.Errorf("figure 5: %w", err)
	}
	t := stats.NewTable("Application", "Requests", "Responses", "Coherence cmds",
		"Coherence replies", "Replacements", "Short w/ address")
	var out []MixResult
	for i, app := range apps {
		r := jrs[i].Result
		total := float64(r.Net.TotalMessages())
		m := MixResult{App: app}
		for c := 0; c < int(noc.NumClasses); c++ {
			m.Fraction[c] = stats.Ratio(float64(r.Net.Messages[c]), total)
		}
		// Short-with-address = requests + coherence commands (11 B) plus
		// the no-data responses; data responses are long, coherence
		// replies carry no address. Approximate the response split from
		// bytes: responses averaging under 30 B are dominated by acks.
		shortAddr := m.Fraction[noc.ClassRequest] + m.Fraction[noc.ClassCoherenceCommand]
		respMsgs := float64(r.Net.Messages[noc.ClassResponse])
		if respMsgs > 0 {
			avg := float64(r.Net.Bytes[noc.ClassResponse]) / respMsgs
			// avg = f*11 + (1-f)*67 => f = (67-avg)/56 of responses are
			// short-with-address.
			f := (67 - avg) / 56
			if f < 0 {
				f = 0
			}
			shortAddr += f * m.Fraction[noc.ClassResponse]
		}
		m.ShortWithAddr = shortAddr
		out = append(out, m)
		t.AddRow(app,
			fmt.Sprintf("%.2f", m.Fraction[noc.ClassRequest]),
			fmt.Sprintf("%.2f", m.Fraction[noc.ClassResponse]),
			fmt.Sprintf("%.2f", m.Fraction[noc.ClassCoherenceCommand]),
			fmt.Sprintf("%.2f", m.Fraction[noc.ClassCoherenceReply]),
			fmt.Sprintf("%.2f", m.Fraction[noc.ClassReplacement]),
			fmt.Sprintf("%.2f", m.ShortWithAddr))
	}
	return out, t, nil
}

// labelsOf renders spec labels.
func labelsOf(specs []compress.Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Label()
	}
	return out
}

func makeAppTable(cols []string) *stats.Table {
	header := append([]string{"Application"}, cols...)
	return stats.NewTable(header...)
}
