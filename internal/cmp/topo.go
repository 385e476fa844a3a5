package cmp

import (
	"fmt"
	"math/bits"

	"tilesim/internal/coherence"
	"tilesim/internal/mesh"
)

// defaultTiles is the paper's CMP size: a 4x4 grid.
const defaultTiles = 16

// CMeshConc is the concentration factor of the "cmesh" topology: four
// tiles share each router through a local crossbar, the c=4 point the
// concentrated-mesh literature converged on (one router per 2x2 tile
// quad).
const CMeshConc = 4

// tiles normalizes the tile count: 0 means the paper's 16.
func (c RunConfig) tiles() int {
	if c.Tiles == 0 {
		return defaultTiles
	}
	return c.Tiles
}

// topologyName normalizes the topology selection: "" means "mesh".
func (c RunConfig) topologyName() string {
	if c.Topology == "" {
		return "mesh"
	}
	return c.Topology
}

// gridDims factors a power-of-two router count into the squarest
// possible W x H grid (wider when the count is an odd power of two):
// 16 -> 4x4, 64 -> 8x8, 32 -> 8x4, 1024 -> 32x32.
func gridDims(routers int) (w, h int) {
	log := bits.TrailingZeros(uint(routers))
	w = 1 << ((log + 1) / 2)
	return w, routers / w
}

// BuildTopology validates the configuration's topology parameters and
// constructs the interconnect graph, returning an error for any it
// cannot build. The rules that belong to the CMP come first: a
// power-of-two tile count in 4..coherence.MaxTiles, laid out on the
// squarest router grid with CMeshConc tiles per cmesh router.
// mesh.NewTopology checks the shape; its error names the topology.
// Config decoding (flags, sweep specs) calls this before any simulator
// structure is built.
func (c RunConfig) BuildTopology() (mesh.Topology, error) {
	tiles := c.tiles()
	if tiles < 4 || tiles > coherence.MaxTiles || bits.OnesCount(uint(tiles)) != 1 {
		return mesh.Topology{}, fmt.Errorf("cmp: tile count must be a power of two in 4..%d (page-interleaved homes), got %d",
			coherence.MaxTiles, tiles)
	}
	name, conc := c.topologyName(), 1
	if name == "cmesh" {
		conc = CMeshConc
	}
	w, h := gridDims(tiles / conc)
	topo, err := mesh.NewTopology(name, w, h, conc)
	if err != nil {
		return mesh.Topology{}, fmt.Errorf("cmp: %d tiles: %w", tiles, err)
	}
	return topo, nil
}
