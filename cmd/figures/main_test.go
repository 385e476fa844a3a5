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
		snap := obs.Snapshot{{Name: "sim.cycles", Metric: obs.Metric{Type: "gauge", Value: float64(tiles)}}}
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

// TestProfilesReportWriteErrors points each profile file in turn at a
// full device: runtime/pprof drops its own write errors, so stop must
// write through calls that report them, and announce nothing it could
// not write.
func TestProfilesReportWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	for _, full := range []string{"", "cpu.pprof", "heap.pprof"} {
		dir := t.TempDir()
		if full != "" {
			if err := os.Symlink("/dev/full", filepath.Join(dir, full)); err != nil {
				t.Fatal(err)
			}
		}
		stop, err := startProfiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		err = stop()
		switch {
		case full != "" && err == nil:
			t.Errorf("%s on a full device: stop reported no error", full)
		case full == "" && err != nil:
			t.Errorf("stop: %v", err)
		case full == "":
			for _, name := range []string{"cpu.pprof", "heap.pprof"} {
				if info, err := os.Stat(filepath.Join(dir, name)); err != nil || info.Size() == 0 {
					t.Errorf("%s missing or empty after stop (%v)", name, err)
				}
			}
		}
	}
}
