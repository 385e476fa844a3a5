package figures

import (
	"fmt"

	"tilesim/internal/cmp"
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
// tiles) point every configuration is normalized against that point's
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

// ScaleStudy runs the wiring ablation's layouts at every (topology,
// tile count) point and reports execution time, interconnect energy and
// full-CMP ED^2P against the topology's average hop count. Each point
// is a group named "<topology>/<tiles>", whose full-CMP model
// replicates the compression hardware over its own tile count. The
// whole grid submits as one batch, so its runs parallelize across the
// runner's workers. Nil tiles/topos select the ScaleTiles/ScaleTopos
// defaults.
func ScaleStudy(runner *sweep.Runner, scale Scale, app string, tiles []int, topos []string) ([]Cell, *stats.Table, error) {
	if len(tiles) == 0 {
		tiles = ScaleTiles
	}
	if len(topos) == 0 {
		topos = ScaleTopos
	}
	var groups []group
	var hops []float64 // per group: mesh.AvgHops, the x-axis the study plots the win against
	for _, topo := range topos {
		for _, n := range tiles {
			probe := cmp.RunConfig{Topology: topo, Tiles: n}
			t, err := probe.BuildTopology()
			if err != nil {
				return nil, nil, fmt.Errorf("scale study: %s/%d: %w", topo, n, err)
			}
			hops = append(hops, mesh.AvgHops(t))
			s := scaleRefs(scale, n)
			g := group{name: fmt.Sprintf("%s/%d", topo, n)}
			for _, l := range layouts {
				cfg := s.job(app, l.spec)
				cfg.Wiring, cfg.Topology, cfg.Tiles = l.wiring, topo, n
				g.add(l.scaleLabel, cfg)
			}
			groups = append(groups, g)
		}
	}
	cells, err := run(runner, "scale study", groups)
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("Topology", "Tiles", "Avg hops", "Configuration",
		"Exec cycles", "Norm time", "Norm IC energy", "Norm chip ED2P", "Coverage")
	for i, c := range cells {
		gi := i / len(layouts)
		cfg := groups[gi].cfgs[0]
		t.AddRow(cfg.Topology, fmt.Sprintf("%d", cfg.Tiles), fmt.Sprintf("%.2f", hops[gi]),
			c.Label,
			fmt.Sprintf("%d", c.ExecCycles),
			fmt.Sprintf("%.3f", c.NormTime),
			fmt.Sprintf("%.3f", c.NormICEnergy),
			fmt.Sprintf("%.3f", c.NormChipED2P),
			fmt.Sprintf("%.2f", c.Coverage))
	}
	return cells, t, nil
}
