package cmp

import (
	"strings"
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/mesh"
)

func TestTopologyDefaultsNormalizeInCanonical(t *testing.T) {
	base := RunConfig{App: "FFT", RefsPerCore: 1000, Seed: 1}
	explicit := base
	explicit.Topology = "mesh"
	explicit.Tiles = 16
	a, err := base.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("default and explicit 4x4 mesh encode differently:\n  %s\n  %s", a, b)
	}
	if strings.Contains(a, "topo=") {
		t.Errorf("default-topology encoding must keep the pre-refactor cache key, got: %s", a)
	}
	scaled := base
	scaled.Topology = "torus"
	scaled.Tiles = 64
	c, err := scaled.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c, "topo=torus tiles=64") {
		t.Errorf("scaled encoding missing topology fields: %s", c)
	}
}

func TestBuildTopologyValidation(t *testing.T) {
	ok := []RunConfig{
		{},                              // default 4x4 mesh
		{Topology: "mesh", Tiles: 1024}, // scale-study ceiling
		{Topology: "cmesh", Tiles: 64},  // 4x4 routers, 4 tiles each
		{Topology: "torus", Tiles: 16},  // smallest legal torus
		{Topology: "slim", Tiles: 8},    // 4x2 flattened butterfly
		{Topology: "slim", Tiles: 4},    // 2x2 flattened butterfly
		{Topology: "mesh", Tiles: 4},    // smallest legal CMP
	}
	for _, cfg := range ok {
		if _, err := cfg.BuildTopology(); err != nil {
			t.Errorf("%s/%d rejected: %v", cfg.topologyName(), cfg.tiles(), err)
		}
	}
	bad := []struct {
		cfg  RunConfig
		want string // substring of the error
	}{
		{RunConfig{Tiles: 24}, "power of two"},
		{RunConfig{Tiles: 2}, "power of two"},
		{RunConfig{Tiles: 2048}, "power of two"},
		{RunConfig{Topology: "cmesh", Tiles: 4}, "cmesh"},
		{RunConfig{Topology: "torus", Tiles: 8}, "torus"},
		{RunConfig{Topology: "hypercube"}, "unknown topology"},
	}
	for _, c := range bad {
		_, err := c.cfg.BuildTopology()
		if err == nil {
			t.Errorf("%s/%d accepted, want error mentioning %q", c.cfg.topologyName(), c.cfg.tiles(), c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s/%d error %q does not mention %q", c.cfg.topologyName(), c.cfg.tiles(), err, c.want)
		}
	}
}

// TestNewSystemRejectsBadTopologyWithError covers the small-fix
// satellite end to end: a bad tile count reaches the user as a returned
// error from config decoding, never as a mesh-package panic.
func TestNewSystemRejectsBadTopologyWithError(t *testing.T) {
	cfg := RunConfig{App: "FFT", RefsPerCore: 100, Seed: 1, Tiles: 24}
	if _, err := NewSystem(cfg); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("NewSystem(Tiles=24) = %v, want power-of-two error", err)
	}
}

func Test64TileSystemsRunOnAllTopologies(t *testing.T) {
	for _, topo := range mesh.TopologyNames {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			cfg := RunConfig{
				App: "FFT", RefsPerCore: 300, WarmupRefs: 100, Seed: 1,
				Topology: topo, Tiles: 64, Heterogeneous: true,
				Compression: compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
			}
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.ExecCycles == 0 || r.Net.TotalMessages() == 0 {
				t.Fatalf("%s: empty run: %d cycles, %d messages", topo, r.ExecCycles, r.Net.TotalMessages())
			}
		})
	}
}
