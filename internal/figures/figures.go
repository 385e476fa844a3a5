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
// Every study has one shape: it builds groups of runs, a baseline
// configuration first and then the configurations normalized against
// it, and returns one Cell per run and the stats.Tables whose rows
// mirror the series the paper reports. Scale selects run length:
// paper-shape results want Default; smoke tests and benchmarks use
// Quick.
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
	"tilesim/internal/energy"
	"tilesim/internal/mesh"
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

// job binds an (application, scheme) pair to this scale's run-length
// and sampling knobs on the baseline wiring; callers flip wiring knobs
// on the returned config. Every figure builds its configs here, so a
// scale knob added once reaches every cell.
func (s Scale) job(app string, spec compress.Spec) cmp.RunConfig {
	return cmp.RunConfig{App: app, Compression: spec, RefsPerCore: s.RefsPerCore,
		WarmupRefs: s.WarmupRefs, Seed: s.Seed, SeriesInterval: s.SeriesInterval}
}

// The two schemes the studies share: no compression, and the paper's
// practical point, a 4-entry DBRC with 2 low-order bytes.
var (
	none  = compress.Spec{Kind: "none"}
	dbrc4 = compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}
)

// Quick is the smoke-test scale (~seconds per figure).
func Quick() Scale { return Scale{RefsPerCore: 2500, WarmupRefs: 1000, Seed: 1} }

// Default is the reporting scale used by cmd/figures and EXPERIMENTS.md.
func Default() Scale { return Scale{RefsPerCore: 16000, WarmupRefs: 8000, Seed: 1} }

// Apps returns the application list (Table 4 order).
func Apps() []string { return workload.AppNames() }

// ICShare is the interconnect share of baseline chip energy used by the
// full-CMP model (the Raw measurement the paper cites [22]).
const ICShare = 0.36

// Cell is one run of a study and its metrics normalized against the
// first run of its group, the group's baseline, whose own ratios are 1.
type Cell struct {
	// Group names the cell's group: its application, its scale-study
	// topology and tile count, or its sensitivity point.
	Group string
	// Label is the run's configuration as its table shows it.
	Label string
	cmp.Result
	// NormTime is execution time relative to the baseline (Fig. 6 top).
	NormTime float64
	// NormLinkED2P is the link energy-delay^2 ratio (Fig. 6 bottom).
	NormLinkED2P float64
	// NormICEnergy is the interconnect (links + routers) energy ratio.
	NormICEnergy float64
	// NormChipED2P is the full-CMP energy-delay^2 ratio (Fig. 7): the
	// energy model is calibrated on the baseline (ICShare of its chip
	// energy), with compression hardware replicated per tile.
	NormChipED2P float64
}

// group is a baseline configuration and then the configurations
// normalized against it, each under its table label.
type group struct {
	name   string
	labels []string
	cfgs   []cmp.RunConfig
}

// add appends a labeled configuration to g.
func (g *group) add(label string, cfg cmp.RunConfig) {
	g.labels = append(g.labels, label)
	g.cfgs = append(g.cfgs, cfg)
}

// run submits every group's configurations as one batch, in group
// order, and returns one cell per run in the same order. what names the
// study in errors. A nil runner selects the default engine.
func run(r *sweep.Runner, what string, groups []group) ([]Cell, error) {
	if r == nil {
		r = &sweep.Runner{}
	}
	var jobs []cmp.RunConfig
	for _, g := range groups {
		jobs = append(jobs, g.cfgs...)
	}
	jrs := r.Run(jobs)
	if err := sweep.Err(jrs); err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	cells := make([]Cell, 0, len(jobs))
	for _, g := range groups {
		runs := jrs[len(cells) : len(cells)+len(g.cfgs)]
		base := runs[0].Result
		tiles := g.cfgs[0].Tiles
		if tiles == 0 {
			tiles = 16 // the paper's machine, which a RunConfig without Tiles builds
		}
		model := energy.Calibrate(base.InterconnectJ, base.ExecCycles, ICShare, tiles)
		var baseChipED2P float64
		for i, jr := range runs {
			res := jr.Result
			chipJ, err := model.ChipJ(res.InterconnectJ, res.ExecCycles, res.Table1Scheme, res.ComprEvents)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", what, err)
			}
			chipED2P := energy.ED2P(chipJ, res.ExecCycles)
			if i == 0 {
				baseChipED2P = chipED2P
			}
			cells = append(cells, Cell{
				Group:        g.name,
				Label:        g.labels[i],
				Result:       res,
				NormTime:     float64(res.ExecCycles) / float64(base.ExecCycles),
				NormLinkED2P: res.LinkED2P() / base.LinkED2P(),
				NormICEnergy: float64(res.InterconnectJ) / float64(base.InterconnectJ),
				NormChipED2P: chipED2P / baseChipED2P,
			})
		}
	}
	return cells, nil
}

// byGroup splits cells, which run returns in group order, into their
// groups; each group's first cell is its baseline.
func byGroup(cells []Cell) [][]Cell {
	var out [][]Cell
	for i, c := range cells {
		if i == 0 || c.Group != cells[i-1].Group {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], c)
	}
	return out
}

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

// Figure2 measures address-compression coverage for every application
// under every Figure 2 configuration. The runs use the baseline
// interconnect (coverage is a property of the address streams, not the
// wires), matching the paper's standalone coverage study. Figure 2 has
// no baseline run: each application's group is normalized against its
// first configuration.
func Figure2(r *sweep.Runner, scale Scale) ([]Cell, *stats.Table, error) {
	specs := compress.Figure2Specs()
	// Heterogeneous wiring is irrelevant for coverage, but the
	// compressed sizes must be legal for the VL width, so run on the
	// baseline link and compress only logically.
	var groups []group
	for _, app := range Apps() {
		g := group{name: app}
		for _, spec := range specs {
			g.add(spec.Label(), scale.job(app, spec))
		}
		groups = append(groups, g)
	}
	cells, err := run(r, "figure 2", groups)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable(append([]string{"Application"}, groups[0].labels...)...)
	for _, g := range byGroup(cells) {
		row := []string{g[0].Group}
		for _, c := range g {
			row = append(row, fmt.Sprintf("%.2f", c.Coverage))
		}
		t.AddRow(row...)
	}
	return cells, t, nil
}

// Figure5 measures the message-class breakdown on the baseline
// interconnect: one baseline run per application.
func Figure5(runner *sweep.Runner, scale Scale) ([]Cell, *stats.Table, error) {
	var groups []group
	for _, app := range Apps() {
		g := group{name: app}
		g.add(none.Label(), scale.job(app, none))
		groups = append(groups, g)
	}
	cells, err := run(runner, "figure 5", groups)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Application", "Requests", "Responses", "Coherence cmds",
		"Coherence replies", "Replacements", "Short w/ address")
	for _, c := range cells {
		f, shortAddr := messageMix(c.Net)
		t.AddRow(c.Group,
			fmt.Sprintf("%.2f", f[noc.ClassRequest]),
			fmt.Sprintf("%.2f", f[noc.ClassResponse]),
			fmt.Sprintf("%.2f", f[noc.ClassCoherenceCommand]),
			fmt.Sprintf("%.2f", f[noc.ClassCoherenceReply]),
			fmt.Sprintf("%.2f", f[noc.ClassReplacement]),
			fmt.Sprintf("%.2f", shortAddr))
	}
	return cells, t, nil
}

// messageMix returns each message class's share of a run's interconnect
// messages, and the share that is short and carries a block address
// (the compressible targets the text calls out).
func messageMix(net mesh.Summary) (frac [noc.NumClasses]float64, shortAddr float64) {
	total := float64(net.TotalMessages())
	for c := range frac {
		frac[c] = stats.Ratio(float64(net.Messages[c]), total)
	}
	// Short-with-address = requests + coherence commands (11 B) plus
	// the no-data responses; data responses are long, coherence
	// replies carry no address. Approximate the response split from
	// bytes: responses averaging under 30 B are dominated by acks.
	shortAddr = frac[noc.ClassRequest] + frac[noc.ClassCoherenceCommand]
	if respMsgs := float64(net.Messages[noc.ClassResponse]); respMsgs > 0 {
		avg := float64(net.Bytes[noc.ClassResponse]) / respMsgs
		// avg = f*11 + (1-f)*67 => f = (67-avg)/56 of responses are
		// short-with-address.
		f := (67 - avg) / 56
		if f < 0 {
			f = 0
		}
		shortAddr += f * frac[noc.ClassResponse]
	}
	return frac, shortAddr
}
