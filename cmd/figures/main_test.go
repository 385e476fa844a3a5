package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/obs"
	"tilesim/internal/sweep"
)

// TestSidecarKeepsDistinctRuns feeds a sidecar two runs that share an
// app and a label but differ in tile count, as the scale study's cells
// do: both must land in the file as separate entries.
func TestSidecarKeepsDistinctRuns(t *testing.T) {
	dir := t.TempDir()
	sc, err := newSidecar(dir, "metrics", "run snapshots", func(r cmp.Result) (obs.Snapshot, bool) {
		return r.Metrics, len(r.Metrics) > 0
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cmp.RunConfig{
		App: "FFT", RefsPerCore: 100, Seed: 1,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	}
	for _, tiles := range []int{16, 64} {
		cfg.Tiles = tiles
		snap := obs.Snapshot{"sim.cycles": obs.Metric{Type: "gauge", Value: float64(tiles)}}
		sc.collect(sweep.JobResult{Config: cfg, Result: cmp.Result{Metrics: snap}})
	}
	if err := sc.flush("scale"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "scale.metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var runs map[string]obs.Snapshot
	if err := json.Unmarshal(data, &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("sidecar holds %d entries for two distinct runs: %v", len(runs), runs)
	}
}
