package figures

import (
	"strings"
	"testing"
)

func TestScaleStudyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	// Two topologies at two small tile counts keeps the test in the
	// seconds range. Only figures -scale runs the 256- and 1024-tile
	// cells; the root package's TestScaleAllocGate runs the 1024-tile
	// torus at DBRC-4/2B on VL+B. The Avg hops column is pinned by the
	// figures-scale row of testdata/golden/results.json, and
	// mesh.TestTorusWrapHalvesDiameter checks the torus against the mesh.
	cells, table, err := ScaleStudy(nil, Quick(), "FFT", []int{16, 64}, []string{"mesh", "torus"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 16 {
		t.Fatalf("%d cells, want 2 topos x 2 tile counts x 4 configs", len(cells))
	}
	out := table.String()
	for _, want := range []string{"baseline", "DBRC-4/2B VL+B", "L+PW +RP", "Avg hops"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
	for _, c := range cells {
		if c.ExecCycles == 0 {
			t.Errorf("%s/%s: empty run", c.Group, c.Label)
		}
		if c.Label == "baseline" {
			if c.NormTime != 1 || c.NormICEnergy != 1 || c.NormChipED2P != 1 {
				t.Errorf("%s baseline not self-normalized: time %v, IC energy %v, chip ED2P %v",
					c.Group, c.NormTime, c.NormICEnergy, c.NormChipED2P)
			}
		} else if c.NormTime <= 0 || c.NormTime > 1.5 {
			t.Errorf("%s/%s: norm time %.3f out of range", c.Group, c.Label, c.NormTime)
		}
	}
}

func TestScaleStudyRejectsBadCell(t *testing.T) {
	if _, _, err := ScaleStudy(nil, Quick(), "FFT", []int{24}, []string{"mesh"}); err == nil {
		t.Fatal("24-tile cell accepted, want power-of-two error")
	}
	if _, _, err := ScaleStudy(nil, Quick(), "FFT", []int{64}, []string{"hypercube"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestScaleRefsHoldsTotalWorkConstant(t *testing.T) {
	s := Scale{RefsPerCore: 16000, WarmupRefs: 8000, Seed: 1}
	if got := scaleRefs(s, 16); got != s {
		t.Errorf("16 tiles must keep the nominal scale, got %+v", got)
	}
	if got := scaleRefs(s, 64); got.RefsPerCore != 4000 || got.WarmupRefs != 2000 {
		t.Errorf("64 tiles: got %+v, want refs 4000 warmup 2000", got)
	}
	if got := scaleRefs(s, 1024); got.RefsPerCore != minScaleRefs || got.WarmupRefs != minScaleRefs/2 {
		t.Errorf("1024 tiles must floor at minScaleRefs, got %+v", got)
	}
}

// TestScaleCellsKeepAMeasurementWindow checks that scaling the figure
// scales to every study cell keeps the warmup inside the run, which
// cmp.NewSystem requires.
func TestScaleCellsKeepAMeasurementWindow(t *testing.T) {
	for _, s := range []Scale{Quick(), Default()} {
		for _, tiles := range append([]int{16}, ScaleTiles...) {
			got := scaleRefs(s, tiles)
			if got.WarmupRefs < 0 || got.WarmupRefs >= got.RefsPerCore {
				t.Errorf("%+v at %d tiles scales to warmup %d of %d refs", s, tiles, got.WarmupRefs, got.RefsPerCore)
			}
		}
	}
}
