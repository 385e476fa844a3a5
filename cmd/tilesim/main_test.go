package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/fault"
)

// TestReportGolden runs the configurations of the stdout goldens in
// testdata/golden and requires report to print them byte for byte: the
// 4x4 mesh on baseline wires, the one golden without a VL plane, and
// with the proposal fault-free and at BER 1e-5, and the 64-tile torus
// with router stalls and a VL-plane outage, the goldens with the
// topology line, once with the outage inside warmup and once after it,
// the one golden with the plane failover line. Each configuration is what the
// README's capture command gives tilesim.
func TestReportGolden(t *testing.T) {
	// tilesim -app FFT -het -scheme dbrc -refs 2000 -warmup 500
	mesh := cmp.RunConfig{
		App: "FFT", RefsPerCore: 2000, WarmupRefs: 500, Seed: 1, Topology: "mesh", Tiles: 16,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	}
	// tilesim -app FFT -refs 2000 -warmup 500
	baseline := mesh
	baseline.Compression, baseline.Heterogeneous = compress.Spec{Kind: "none", Entries: 4, LowOrderBytes: 2}, false
	ber := mesh
	ber.Faults = fault.Config{BER: 1e-5, VLBERScale: 4}
	torus := mesh
	torus.RefsPerCore, torus.WarmupRefs, torus.Topology, torus.Tiles = 500, 250, "torus", 64
	torus.Faults = fault.Config{StallProb: 0.01, OutagePlane: "VL", OutageStart: 2000, OutageCycles: 3000}
	failover := torus
	failover.Faults.OutageStart = 100000
	for name, cfg := range map[string]cmp.RunConfig{
		"mesh4x4-baseline":       baseline,
		"mesh4x4-faultfree":      mesh,
		"mesh4x4-ber1e5":         ber,
		"torus-stall-outage64":   torus,
		"torus-stall-failover64": failover,
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".stdout.txt"))
			if err != nil {
				t.Fatal(err)
			}
			sys, err := cmp.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			report(&got, cfg, sys, r)
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("report differs from the golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
			}
		})
	}
}
