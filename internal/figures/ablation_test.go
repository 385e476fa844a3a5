package figures

import (
	"strings"
	"testing"
)

func TestAblationWiringQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cells, table, err := AblationWiring(nil, Quick(), []string{"MP3D", "Water-nsq"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("%d cells, want 2 apps x (baseline + 3 layouts)", len(cells))
	}
	out := table.String()
	for _, want := range []string{"VL+B (paper)", "L+PW +RP", "VL+B+PW +RP"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing layout %q", want)
		}
	}
	for _, g := range byGroup(cells) {
		for _, c := range g[1:] {
			if c.NormTime <= 0 || c.NormTime > 1.5 {
				t.Errorf("%s/%s: norm time %.3f out of range", c.Group, c.Label, c.NormTime)
			}
			if strings.Contains(c.Label, "PW") && c.PWFraction == 0 {
				t.Errorf("%s/%s: PW layout with no PW traffic", c.Group, c.Label)
			}
		}
	}
}

func TestAblationDBRCSizeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cells, table, err := AblationDBRCSize(nil, Quick(), "FFT")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("%d cells, want baseline + 5 entry counts", len(cells))
	}
	if !strings.Contains(table.String(), "32") {
		t.Error("untabulated 32-entry point missing")
	}
	// Coverage must be non-decreasing in entries.
	sizes := cells[1:]
	for i := 1; i < len(sizes); i++ {
		if sizes[i].Coverage+0.03 < sizes[i-1].Coverage {
			t.Errorf("coverage not monotone: %s %.2f < %s %.2f",
				sizes[i].Label, sizes[i].Coverage, sizes[i-1].Label, sizes[i-1].Coverage)
		}
	}
}

func TestAblationSensitivityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cells, table, err := AblationSensitivity(nil, Quick(), "MP3D")
	if err != nil {
		t.Fatal(err)
	}
	groups := byGroup(cells)
	if len(groups) != 5 {
		t.Fatalf("%d points", len(groups))
	}
	if !strings.Contains(table.String(), "Router stages") {
		t.Error("table header missing")
	}
	normTime := map[string]float64{}
	for _, g := range groups {
		normTime[g[0].Group] = g[1].NormTime
	}
	// Slower wires amplify the win; deeper routers dilute it.
	if normTime["2-stage/2.0x"] >= normTime["2-stage/0.5x"] {
		t.Errorf("slow wires %f should beat fast wires %f", normTime["2-stage/2.0x"], normTime["2-stage/0.5x"])
	}
	if normTime["1-stage/1.0x"] >= normTime["4-stage/1.0x"] {
		t.Errorf("shallow routers %f should beat deep routers %f", normTime["1-stage/1.0x"], normTime["4-stage/1.0x"])
	}
}
