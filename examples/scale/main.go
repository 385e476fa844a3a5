// Scale: grow the CMP past the paper's 16-tile 4x4 mesh and watch how
// the topology drives the proposal's win. The walkthrough
//
//  1. builds each pluggable topology at 64 tiles and prints its shape
//     (routers, links, diameter-driving average hop count), then
//  2. runs the paper's practical point (4-entry DBRC over VL+B wires)
//     against the baseline on a 64-tile mesh and a 64-tile torus, at
//     constant total work, and compares the execution-time win.
//
// The full three-decade study (64/256/1024 tiles, energy and full-CMP
// ED^2P columns, EXPERIMENTS.md preamble) is: go run ./cmd/figures -scale
//
//	go run ./examples/scale
package main

import (
	"fmt"
	"log"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/mesh"
)

func main() {
	const tiles = 64

	// 1. The four topologies at 64 tiles. Same tile count, very
	// different wire budgets and hop counts (DESIGN.md §14).
	fmt.Printf("topologies at %d tiles:\n\n", tiles)
	fmt.Printf("  %-12s %8s %7s %9s\n", "topology", "routers", "links", "avg hops")
	for _, name := range mesh.TopologyNames {
		cfg := cmp.RunConfig{Topology: name, Tiles: tiles}
		topo, err := cfg.BuildTopology()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %8d %7d %9.2f\n",
			topo.Label(), topo.Nodes(), len(topo.Links()), mesh.AvgHops(topo))
	}

	// 2. Baseline vs. the paper's proposal on two of them. Per-core work
	// shrinks 16/64 versus the 16-tile figures so total work matches.
	const refs, warmup = 4000, 2000
	run := func(topology string, het bool) cmp.Result {
		cfg := cmp.RunConfig{
			App: "FFT", RefsPerCore: refs, WarmupRefs: warmup, Seed: 1,
			Topology: topology, Tiles: tiles,
			Compression: compress.Spec{Kind: "none"},
		}
		if het {
			cfg.Compression = compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}
			cfg.Heterogeneous = true
		}
		r, err := cmp.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	fmt.Printf("\nFFT, %d tiles, %d refs/core (constant total work vs. 16 tiles):\n\n", tiles, refs)
	fmt.Printf("  %-8s %16s %16s %10s\n", "topology", "baseline cycles", "VL+B cycles", "norm time")
	for _, topology := range []string{"mesh", "torus"} {
		base, het := run(topology, false), run(topology, true)
		fmt.Printf("  %-8s %16d %16d %10.3f\n",
			topology, base.ExecCycles, het.ExecCycles,
			float64(het.ExecCycles)/float64(base.ExecCycles))
	}
	fmt.Println("\nThe mesh's longer routes give compression more wire latency to save;")
	fmt.Println("the torus covers the same tiles in fewer hops and narrows the gap.")
}
