package tilesim

// Golden and determinism guards for the topology refactor (DESIGN.md
// §14.5): the pluggable-topology network must be observationally
// identical to the pre-refactor fixed 4x4 mesh, and every topology must
// stay same-seed deterministic at scale. Both tests run under -race in
// the CI test job, where TestPinnedResults skips.
//
// testdata/golden holds metrics snapshots and tilesim stdout captured
// from the pre-refactor simulator (the commit before the Topology
// interface landed). The metrics halves are enforced here; the stdout
// halves by cmd/tilesim's TestReportGolden.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/fault"
)

// goldenConfig is the configuration the goldens were captured at
// (testdata/golden/README.md), with and without fault injection.
func goldenConfig(faults bool) cmp.RunConfig {
	cfg := cmp.RunConfig{
		App: "FFT", RefsPerCore: 2000, WarmupRefs: 500, Seed: 1,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	}
	if faults {
		cfg.Faults = fault.Config{BER: 1e-5, VLBERScale: 4}
	}
	return cfg
}

func metricsJSON(t testing.TB, cfg cmp.RunConfig) []byte {
	t.Helper()
	r, err := cmp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenMetricsUnchanged proves the 4x4 default is byte-identical
// to the pre-refactor simulator: the refactored network must reproduce
// the captured metrics snapshots bit for bit, fault-free and at high
// BER. Runs under -race too (the CI test job), so the byte-identity
// claim is also a data-race claim.
func TestGoldenMetricsUnchanged(t *testing.T) {
	cases := []struct {
		name   string
		faults bool
	}{
		{"mesh4x4-faultfree", false},
		{"mesh4x4-ber1e5", true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", c.name+".metrics.json"))
			if err != nil {
				t.Fatalf("golden missing (regenerate per testdata/golden/README.md): %v", err)
			}
			got := metricsJSON(t, goldenConfig(c.faults))
			if !bytes.Equal(got, want) {
				t.Errorf("metrics diverged from the pre-refactor golden (%d vs %d bytes); "+
					"if the change is deliberate, regenerate testdata/golden and bump cmp.SimVersion",
					len(got), len(want))
			}
		})
	}
}

// TestTopologiesByteIdentical64 proves same-seed determinism survives
// the scale-out: on every topology at 64 tiles, two identical runs
// produce byte-identical metrics snapshots. Runs under -race in CI.
func TestTopologiesByteIdentical64(t *testing.T) {
	if testing.Short() {
		t.Skip("eight 64-tile simulations")
	}
	for _, topo := range cmp.TopologyNames {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(false)
			cfg.Topology, cfg.Tiles = topo, 64
			cfg.RefsPerCore, cfg.WarmupRefs = 500, 250
			a := metricsJSON(t, cfg)
			b := metricsJSON(t, cfg)
			if !bytes.Equal(a, b) {
				t.Errorf("%s: same-seed 64-tile runs differ (%d vs %d bytes)", topo, len(a), len(b))
			}
		})
	}
}
