package figures

import (
	"fmt"

	"tilesim/internal/compress"
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

// layouts are the link layouts AblationWiring and ScaleStudy run, the
// baseline first, each under both studies' labels: the paper's
// practical compression point over VL+B, the Cheng-style L+PW layout,
// which does not compress, and the combined layout.
var layouts = []struct {
	wiring                  string
	spec                    compress.Spec
	wiringLabel, scaleLabel string
}{
	{"", none, none.Label(), none.Label()},
	{"vlb", dbrc4, "VL+B (paper)", "DBRC-4/2B VL+B"},
	{"lpw", none, "L+PW +RP (Cheng/[9])", "L+PW +RP"},
	{"vlbpw", dbrc4, "VL+B+PW +RP (combined)", "DBRC-4/2B VL+B+PW +RP"},
}

// AblationWiring compares link layouts on the given applications. The
// compression scheme is the paper's practical point (4-entry DBRC, 2B
// low-order) wherever the layout supports compression.
func AblationWiring(runner *sweep.Runner, scale Scale, apps []string) ([]Cell, *stats.Table, error) {
	var groups []group
	for _, app := range apps {
		g := group{name: app}
		for _, l := range layouts {
			cfg := scale.job(app, l.spec)
			cfg.Wiring = l.wiring
			g.add(l.wiringLabel, cfg)
		}
		groups = append(groups, g)
	}
	cells, err := run(runner, "wiring ablation", groups)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Application", "Layout", "Norm time", "Norm link ED2P", "VL traffic", "PW traffic")
	for _, g := range byGroup(cells) {
		for _, c := range g[1:] {
			t.AddRow(c.Group, c.Label,
				fmt.Sprintf("%.3f", c.NormTime),
				fmt.Sprintf("%.3f", c.NormLinkED2P),
				fmt.Sprintf("%.2f", c.VLFraction),
				fmt.Sprintf("%.2f", c.PWFraction))
		}
	}
	return cells, t, nil
}

// AblationSensitivity measures how the proposal's execution-time win
// depends on the network technology point: router pipeline depth and
// wire speed around the calibrated 2-stage / 0.4 ns/mm configuration
// (see DESIGN.md section 5.0). Deeper routers and faster wires both
// dilute the VL-Wire advantage. Each point is a group named
// "<stages>-stage/<scale>x".
func AblationSensitivity(runner *sweep.Runner, scale Scale, app string) ([]Cell, *stats.Table, error) {
	points := []struct {
		router int
		scale  float64
	}{
		{1, 1.0}, {2, 0.5}, {2, 1.0}, {2, 2.0}, {4, 1.0},
	}
	var groups []group
	for _, p := range points {
		g := group{name: fmt.Sprintf("%d-stage/%.1fx", p.router, p.scale)}
		base := scale.job(app, none)
		base.RouterLatency = p.router
		base.LinkCyclesScale = p.scale
		het := base
		het.Compression, het.Heterogeneous = dbrc4, true
		g.add(none.Label(), base)
		g.add(dbrc4.Label(), het)
		groups = append(groups, g)
	}
	cells, err := run(runner, "sensitivity ablation", groups)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Router stages", "Wire-speed scale", "Norm time (DBRC-4 2B)")
	for i, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.router), fmt.Sprintf("%.1fx", p.scale),
			fmt.Sprintf("%.3f", cells[2*i+1].NormTime))
	}
	return cells, t, nil
}

// AblationDBRCSize sweeps the DBRC entry count (including the paper's
// untabulated 8 and 32 points) on one application, exposing where the
// Figure 7 coverage-vs-hardware-overhead tradeoff turns over.
func AblationDBRCSize(runner *sweep.Runner, scale Scale, app string) ([]Cell, *stats.Table, error) {
	sizes := []int{4, 8, 16, 32, 64}
	g := group{name: app}
	g.add(none.Label(), scale.job(app, none))
	for _, entries := range sizes {
		cfg := scale.job(app, compress.Spec{Kind: "dbrc", Entries: entries, LowOrderBytes: 2})
		cfg.Heterogeneous = true
		g.add(cfg.Compression.Label(), cfg)
	}
	cells, err := run(runner, "dbrc sweep", []group{g})
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("DBRC entries", "Coverage", "Norm time", "Norm chip ED2P")
	for i, c := range cells[1:] {
		t.AddRow(fmt.Sprintf("%d", sizes[i]),
			fmt.Sprintf("%.2f", c.Coverage),
			fmt.Sprintf("%.3f", c.NormTime),
			fmt.Sprintf("%.3f", c.NormChipED2P))
	}
	return cells, t, nil
}
