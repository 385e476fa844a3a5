package figures

import (
	"fmt"
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
	// torus at DBRC-4/2B on VL+B.
	rows, table, err := ScaleStudy(nil, Quick(), "FFT", []int{16, 64}, []string{"mesh", "torus"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("%d rows, want 2 topos x 2 tile counts x 4 configs", len(rows))
	}
	out := table.String()
	for _, want := range []string{"baseline", "DBRC-4/2B VL+B", "L+PW +RP", "Avg hops"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
	hops := map[string]float64{}
	for _, r := range rows {
		if r.ExecCycles == 0 {
			t.Errorf("%s/%d/%s: empty run", r.Topology, r.Tiles, r.Config)
		}
		if r.Config == "baseline" {
			if r.NormTime != 1 || r.NormICEnergy != 1 || r.NormChipED2P != 1 {
				t.Errorf("%s/%d baseline not self-normalized: %+v", r.Topology, r.Tiles, r)
			}
		} else if r.NormTime <= 0 || r.NormTime > 1.5 {
			t.Errorf("%s/%d/%s: norm time %.3f out of range", r.Topology, r.Tiles, r.Config, r.NormTime)
		}
		hops[fmt.Sprintf("%s/%d", r.Topology, r.Tiles)] = r.AvgHops
	}
	// The torus wraparound must beat the mesh diameter at equal radix.
	if hops["torus/64"] >= hops["mesh/64"] {
		t.Errorf("torus avg hops %.2f not below mesh %.2f at 64 tiles", hops["torus/64"], hops["mesh/64"])
	}
	// Hop count must grow with the machine.
	if hops["mesh/64"] <= hops["mesh/16"] {
		t.Errorf("mesh avg hops %.2f at 64 tiles not above %.2f at 16", hops["mesh/64"], hops["mesh/16"])
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
