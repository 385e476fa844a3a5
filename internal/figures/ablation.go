package figures

import (
	"fmt"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/energy"
	"tilesim/internal/stats"
	"tilesim/internal/sweep"
)

// This file holds the ablation studies DESIGN.md calls out beyond the
// paper's own figures:
//
//   - Wiring layouts: the paper's VL+B proposal against the
//     Cheng-style L+PW layout with Reply Partitioning ([9]) and the
//     combined VL+B+PW design the paper sketches as future work.
//   - DBRC size sweep including the untabulated 8- and 32-entry points
//     (costed by the cacti analytical surrogate), exposing the Figure 7
//     optimum between coverage and hardware overhead.

// WiringAblationRow is one (application, layout) result.
type WiringAblationRow struct {
	App, Layout  string
	NormTime     float64
	NormLinkED2P float64
	VLFraction   float64
	PWFraction   float64
}

// AblationWiring compares link layouts on the given applications. The
// compression scheme is the paper's practical point (4-entry DBRC, 2B
// low-order) wherever the layout supports compression.
func AblationWiring(runner *sweep.Runner, scale Scale, apps []string) ([]WiringAblationRow, *stats.Table, error) {
	runner = defaulted(runner)
	dbrc := compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}
	layouts := []struct {
		name string
		cfg  func(app string) cmp.RunConfig
	}{
		{"VL+B (paper)", func(app string) cmp.RunConfig {
			return cmp.RunConfig{App: app, Compression: dbrc, Wiring: "vlb"}
		}},
		{"L+PW +RP (Cheng/[9])", func(app string) cmp.RunConfig {
			return cmp.RunConfig{App: app, Compression: compress.Spec{Kind: "none"}, Wiring: "lpw"}
		}},
		{"VL+B+PW +RP (combined)", func(app string) cmp.RunConfig {
			return cmp.RunConfig{App: app, Compression: dbrc, Wiring: "vlbpw"}
		}},
	}
	stride := 1 + len(layouts)
	jobs := make([]cmp.RunConfig, 0, len(apps)*stride)
	for _, app := range apps {
		jobs = append(jobs, scale.job(app, compress.Spec{Kind: "none"}))
		for _, l := range layouts {
			jobs = append(jobs, scale.apply(l.cfg(app)))
		}
	}
	jrs := runner.Run(jobs)
	if err := sweep.Err(jrs); err != nil {
		return nil, nil, fmt.Errorf("wiring ablation: %w", err)
	}
	t := stats.NewTable("Application", "Layout", "Norm time", "Norm link ED2P", "VL traffic", "PW traffic")
	var rows []WiringAblationRow
	for ai, app := range apps {
		base := jrs[ai*stride].Result
		for li, l := range layouts {
			r := jrs[ai*stride+1+li].Result
			row := WiringAblationRow{
				App:          app,
				Layout:       l.name,
				NormTime:     float64(r.ExecCycles) / float64(base.ExecCycles),
				NormLinkED2P: r.LinkED2P() / base.LinkED2P(),
				VLFraction:   r.VLFraction,
				PWFraction:   r.PWFraction,
			}
			rows = append(rows, row)
			t.AddRow(app, l.name,
				fmt.Sprintf("%.3f", row.NormTime),
				fmt.Sprintf("%.3f", row.NormLinkED2P),
				fmt.Sprintf("%.2f", row.VLFraction),
				fmt.Sprintf("%.2f", row.PWFraction))
		}
	}
	return rows, t, nil
}

// SensitivityRow is one point of the technology-sensitivity sweep.
type SensitivityRow struct {
	RouterLatency int
	LinkScale     float64
	NormTime      float64
}

// AblationSensitivity measures how the proposal's execution-time win
// depends on the network technology point: router pipeline depth and
// wire speed around the calibrated 2-stage / 0.4 ns/mm configuration
// (see DESIGN.md section 5.0). Deeper routers and faster wires both
// dilute the VL-Wire advantage.
func AblationSensitivity(runner *sweep.Runner, scale Scale, app string) ([]SensitivityRow, *stats.Table, error) {
	runner = defaulted(runner)
	points := []struct {
		router int
		scale  float64
	}{
		{1, 1.0}, {2, 0.5}, {2, 1.0}, {2, 2.0}, {4, 1.0},
	}
	mk := func(p struct {
		router int
		scale  float64
	}, het bool) cmp.RunConfig {
		cfg := scale.job(app, compress.Spec{Kind: "none"})
		cfg.RouterLatency = p.router
		cfg.LinkCyclesScale = p.scale
		if het {
			cfg.Compression = compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}
			cfg.Heterogeneous = true
		}
		return cfg
	}
	jobs := make([]cmp.RunConfig, 0, 2*len(points))
	for _, p := range points {
		jobs = append(jobs, mk(p, false), mk(p, true))
	}
	jrs := runner.Run(jobs)
	if err := sweep.Err(jrs); err != nil {
		return nil, nil, fmt.Errorf("sensitivity ablation: %w", err)
	}
	t := stats.NewTable("Router stages", "Wire-speed scale", "Norm time (DBRC-4 2B)")
	var rows []SensitivityRow
	for i, p := range points {
		base, het := jrs[2*i].Result, jrs[2*i+1].Result
		row := SensitivityRow{
			RouterLatency: p.router,
			LinkScale:     p.scale,
			NormTime:      float64(het.ExecCycles) / float64(base.ExecCycles),
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%d", p.router), fmt.Sprintf("%.1fx", p.scale),
			fmt.Sprintf("%.3f", row.NormTime))
	}
	return rows, t, nil
}

// DBRCSizeRow is one entry-count result of the size sweep.
type DBRCSizeRow struct {
	Entries      int
	Coverage     float64
	NormTime     float64
	NormChipED2P float64
}

// AblationDBRCSize sweeps the DBRC entry count (including the paper's
// untabulated 8 and 32 points) on one application, exposing where the
// Figure 7 coverage-vs-hardware-overhead tradeoff turns over.
func AblationDBRCSize(runner *sweep.Runner, scale Scale, app string) ([]DBRCSizeRow, *stats.Table, error) {
	runner = defaulted(runner)
	sizes := []int{4, 8, 16, 32, 64}
	jobs := make([]cmp.RunConfig, 0, 1+len(sizes))
	jobs = append(jobs, scale.job(app, compress.Spec{Kind: "none"}))
	for _, entries := range sizes {
		cfg := scale.job(app, compress.Spec{Kind: "dbrc", Entries: entries, LowOrderBytes: 2})
		cfg.Heterogeneous = true
		jobs = append(jobs, cfg)
	}
	jrs := runner.Run(jobs)
	if err := sweep.Err(jrs); err != nil {
		return nil, nil, fmt.Errorf("dbrc sweep: %w", err)
	}
	base := jrs[0].Result
	model := energy.Calibrate(base.InterconnectJ, base.ExecCycles, ICShare, 16)
	baseChipJ, err := model.ChipJ(base.InterconnectJ, base.ExecCycles, "", 0)
	if err != nil {
		return nil, nil, err
	}
	baseED2P := energy.ED2P(baseChipJ, base.ExecCycles)

	t := stats.NewTable("DBRC entries", "Coverage", "Norm time", "Norm chip ED2P")
	var rows []DBRCSizeRow
	for i, entries := range sizes {
		r := jrs[1+i].Result
		chipJ, err := model.ChipJ(r.InterconnectJ, r.ExecCycles, r.Table1Scheme, r.ComprEvents)
		if err != nil {
			return nil, nil, err
		}
		row := DBRCSizeRow{
			Entries:      entries,
			Coverage:     r.Coverage,
			NormTime:     float64(r.ExecCycles) / float64(base.ExecCycles),
			NormChipED2P: energy.ED2P(chipJ, r.ExecCycles) / baseED2P,
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprintf("%d", entries),
			fmt.Sprintf("%.2f", row.Coverage),
			fmt.Sprintf("%.3f", row.NormTime),
			fmt.Sprintf("%.3f", row.NormChipED2P))
	}
	return rows, t, nil
}
