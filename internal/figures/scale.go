package figures

import (
	"fmt"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/energy"
	"tilesim/internal/mesh"
	"tilesim/internal/stats"
	"tilesim/internal/sweep"
)

// This file holds the scale study (DESIGN.md §14.6): the paper's
// compression and wire-plane ablations re-run at 64, 256 and 1024
// tiles on the pluggable topologies, relating the proposal's win to
// the network diameter. The paper evaluates a 16-tile 4x4 mesh; the
// study asks how the VL+B result extrapolates when the average hop
// count - and with it the wire share of miss latency and interconnect
// energy - grows.
//
// Methodology: total simulated work is held constant as the machine
// grows (refs-per-core shrinks proportionally, floored at
// minScaleRefs), so a 1024-tile point costs roughly what a 16-tile
// point does and the study stays tractable. Within one (topology,
// tiles) cell every configuration is normalized against that cell's
// own baseline, so rows compare interconnect designs at equal scale,
// never workloads across scales.

// ScaleTiles is the default tile-count axis of the scale study.
var ScaleTiles = []int{64, 256, 1024}

// ScaleTopos is the default topology axis: the paper's dense mesh
// against the torus, whose wraparound halves the average hop count at
// equal radix and so isolates the hop-count dependence of the win.
var ScaleTopos = []string{"mesh", "torus"}

// minScaleRefs floors the per-core run length as refs shrink with the
// tile count, so the largest machines still exercise the caches past
// their cold-start transient.
const minScaleRefs = 500

// ScaleRow is one (topology, tiles, configuration) point of the scale
// study. Normalized metrics are relative to the same topology and
// tile count's baseline run.
type ScaleRow struct {
	Topology string
	Tiles    int
	// AvgHops is the topology's uniform-traffic average hop count
	// (mesh.AvgHops) - the x-axis the study plots the win against.
	AvgHops float64
	Config  string
	// ExecCycles is the absolute execution time of this run.
	ExecCycles uint64
	// NormTime is execution time relative to the cell baseline.
	NormTime float64
	// NormICEnergy is interconnect (links + routers) energy relative to
	// the cell baseline.
	NormICEnergy float64
	// NormChipED2P is full-CMP ED^2P relative to the cell baseline,
	// with the energy model calibrated per cell (ICShare of the cell's
	// own baseline, compression hardware replicated per tile).
	NormChipED2P float64
	// Coverage is the achieved compression coverage (zero for the
	// layouts that do not compress).
	Coverage float64
}

// scaleConfigs returns the per-cell configuration list: the paper's
// practical compression point over VL+B, the Cheng-style wire-plane
// alternative, and the combined layout - the same ablations
// AblationWiring runs at 16 tiles.
func scaleConfigs() []struct {
	name string
	cfg  func(app string) cmp.RunConfig
} {
	dbrc := compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}
	return []struct {
		name string
		cfg  func(app string) cmp.RunConfig
	}{
		{"DBRC-4/2B VL+B", func(app string) cmp.RunConfig {
			return cmp.RunConfig{App: app, Compression: dbrc, Wiring: "vlb"}
		}},
		{"L+PW +RP", func(app string) cmp.RunConfig {
			return cmp.RunConfig{App: app, Compression: compress.Spec{Kind: "none"}, Wiring: "lpw"}
		}},
		{"DBRC-4/2B VL+B+PW +RP", func(app string) cmp.RunConfig {
			return cmp.RunConfig{App: app, Compression: dbrc, Wiring: "vlbpw"}
		}},
	}
}

// scaleRefs maps the nominal (16-tile) scale to one tile count,
// holding total work constant: refs*16/tiles, floored at
// minScaleRefs. At 16 tiles it returns the scale unchanged, so the
// study's cells are directly comparable to the paper figures' runs.
func scaleRefs(s Scale, tiles int) Scale {
	scaled := s
	scaled.RefsPerCore = s.RefsPerCore * 16 / tiles
	if scaled.RefsPerCore < minScaleRefs {
		scaled.RefsPerCore = minScaleRefs
	}
	scaled.WarmupRefs = s.WarmupRefs * 16 / tiles
	if min := minScaleRefs / 2; scaled.WarmupRefs < min {
		scaled.WarmupRefs = min
	}
	return scaled
}

// ScaleStudy runs the compression and wire-plane ablations at every
// (topology, tile count) cell and reports execution time, interconnect
// energy and full-CMP ED^2P against the topology's average hop count.
// The whole grid submits as one batch, so cells parallelize across the
// runner's workers. Nil tiles/topos select the ScaleTiles/ScaleTopos
// defaults.
func ScaleStudy(runner *sweep.Runner, scale Scale, app string, tiles []int, topos []string) ([]ScaleRow, *stats.Table, error) {
	runner = defaulted(runner)
	if len(tiles) == 0 {
		tiles = ScaleTiles
	}
	if len(topos) == 0 {
		topos = ScaleTopos
	}
	configs := scaleConfigs()
	stride := 1 + len(configs) // baseline + ablations per cell

	type cell struct {
		topo    string
		tiles   int
		avgHops float64
	}
	var cells []cell
	var jobs []cmp.RunConfig
	for _, topo := range topos {
		for _, n := range tiles {
			probe := cmp.RunConfig{Topology: topo, Tiles: n}
			t, err := probe.BuildTopology()
			if err != nil {
				return nil, nil, fmt.Errorf("scale study: %s/%d: %w", topo, n, err)
			}
			cells = append(cells, cell{topo: topo, tiles: n, avgHops: mesh.AvgHops(t)})
			s := scaleRefs(scale, n)
			mk := func(cfg cmp.RunConfig) cmp.RunConfig {
				cfg = s.apply(cfg)
				cfg.Topology, cfg.Tiles = topo, n
				return cfg
			}
			jobs = append(jobs, mk(cmp.RunConfig{App: app, Compression: compress.Spec{Kind: "none"}}))
			for _, c := range configs {
				jobs = append(jobs, mk(c.cfg(app)))
			}
		}
	}
	jrs := runner.Run(jobs)
	if err := sweep.Err(jrs); err != nil {
		return nil, nil, fmt.Errorf("scale study: %w", err)
	}

	t := stats.NewTable("Topology", "Tiles", "Avg hops", "Configuration",
		"Exec cycles", "Norm time", "Norm IC energy", "Norm chip ED2P", "Coverage")
	var rows []ScaleRow
	for ci, c := range cells {
		base := jrs[ci*stride].Result
		model := energy.Calibrate(base.InterconnectJ, base.ExecCycles, ICShare, c.tiles)
		baseChipJ, err := model.ChipJ(base.InterconnectJ, base.ExecCycles, "", 0)
		if err != nil {
			return nil, nil, err
		}
		baseChipED2P := energy.ED2P(baseChipJ, base.ExecCycles)
		add := func(config string, r cmp.Result) error {
			chipJ, err := model.ChipJ(r.InterconnectJ, r.ExecCycles, r.Table1Scheme, r.ComprEvents)
			if err != nil {
				return err
			}
			row := ScaleRow{
				Topology:     c.topo,
				Tiles:        c.tiles,
				AvgHops:      c.avgHops,
				Config:       config,
				ExecCycles:   r.ExecCycles,
				NormTime:     float64(r.ExecCycles) / float64(base.ExecCycles),
				NormICEnergy: float64(r.InterconnectJ) / float64(base.InterconnectJ),
				NormChipED2P: energy.ED2P(chipJ, r.ExecCycles) / baseChipED2P,
				Coverage:     r.Coverage,
			}
			rows = append(rows, row)
			t.AddRow(row.Topology, fmt.Sprintf("%d", row.Tiles), fmt.Sprintf("%.2f", row.AvgHops),
				row.Config,
				fmt.Sprintf("%d", row.ExecCycles),
				fmt.Sprintf("%.3f", row.NormTime),
				fmt.Sprintf("%.3f", row.NormICEnergy),
				fmt.Sprintf("%.3f", row.NormChipED2P),
				fmt.Sprintf("%.2f", row.Coverage))
			return nil
		}
		if err := add("baseline", base); err != nil {
			return nil, nil, err
		}
		for i, cfg := range configs {
			if err := add(cfg.name, jrs[ci*stride+1+i].Result); err != nil {
				return nil, nil, err
			}
		}
	}
	return rows, t, nil
}
