package figures

import (
	"strings"
	"testing"
)

func TestTablesRender(t *testing.T) {
	t1 := Table1().String()
	for _, want := range []string{"4-entry DBRC", "64-entry DBRC", "2-byte Stride", "1088", "17408"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2().String()
	for _, want := range []string{"B-Wire (8X)", "PW-Wire (4X)", "1.00x", "3.20x"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, t2)
		}
	}
	t3 := Table3().String()
	for _, want := range []string{"VL-Wire (3B)", "VL-Wire (5B)", "0.27x", "14.0x"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, t3)
		}
	}
}

func TestFigure2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cells, table, err := Figure2(nil, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 13*8 {
		t.Fatalf("%d cells, want 13 apps x 8 configs", len(cells))
	}
	if !strings.Contains(table.String(), "Barnes-Hut") {
		t.Error("table missing applications")
	}
	// Structural expectations that hold even at quick scale:
	byKey := map[string]float64{}
	for _, c := range cells {
		byKey[c.Group+"|"+c.Label] = c.Coverage
	}
	// 2B low-order dominates 1B for the same DBRC size.
	for _, app := range []string{"FFT", "MP3D", "Water-nsq"} {
		if byKey[app+"|4-entry DBRC (2B LO)"] < byKey[app+"|4-entry DBRC (1B LO)"] {
			t.Errorf("%s: 2B LO coverage below 1B LO", app)
		}
	}
	// More entries never hurt (same LO).
	for _, app := range Apps() {
		if byKey[app+"|64-entry DBRC (2B LO)"]+0.02 < byKey[app+"|4-entry DBRC (2B LO)"] {
			t.Errorf("%s: 64-entry coverage %.2f below 4-entry %.2f",
				app, byKey[app+"|64-entry DBRC (2B LO)"], byKey[app+"|4-entry DBRC (2B LO)"])
		}
	}
	// Radix's scatter defeats small DBRCs (the paper's Figure 2 callout).
	if byKey["Radix|4-entry DBRC (2B LO)"] > 0.5 {
		t.Errorf("Radix 4-entry coverage %.2f, expected low", byKey["Radix|4-entry DBRC (2B LO)"])
	}
}

func TestFigure5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cells, table, err := Figure5(nil, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 13 {
		t.Fatalf("%d apps", len(cells))
	}
	if !strings.Contains(table.String(), "Requests") {
		t.Error("table header missing")
	}
	for _, c := range cells {
		frac, shortAddr := messageMix(c.Net)
		var sum float64
		for _, f := range frac {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: class fractions sum to %.3f", c.Group, sum)
		}
		if shortAddr <= 0 || shortAddr >= 1 {
			t.Errorf("%s: short-with-address fraction %.2f", c.Group, shortAddr)
		}
	}
}

func TestFigure67Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cells, err := Figure67(nil, Quick())
	if err != nil {
		t.Fatal(err)
	}
	groups := byGroup(cells)
	if len(groups) != 13 {
		t.Fatalf("%d apps", len(groups))
	}
	for _, g := range groups {
		if len(g) != 9 { // baseline + 6 bars + 2 perfect lines
			t.Fatalf("%s: %d cells, want 9", g[0].Group, len(g))
		}
		for _, c := range g[1:] {
			if c.NormTime <= 0 || c.NormTime > 1.2 {
				t.Errorf("%s/%s: norm time %.3f out of range", c.Group, c.Label, c.NormTime)
			}
			if c.NormLinkED2P <= 0 || c.NormLinkED2P > 1.2 {
				t.Errorf("%s/%s: link ED2P %.3f out of range", c.Group, c.Label, c.NormLinkED2P)
			}
			if c.NormChipED2P <= 0 || c.NormChipED2P > 1.2 {
				t.Errorf("%s/%s: chip ED2P %.3f out of range", c.Group, c.Label, c.NormChipED2P)
			}
		}
	}
	// Rendering works and includes the averages row.
	for _, tb := range []string{
		Figure6TopTable(cells).String(),
		Figure6BottomTable(cells).String(),
		Figure7Table(cells).String(),
	} {
		if !strings.Contains(tb, "AVERAGE") || !strings.Contains(tb, "[line]") {
			t.Error("rendered table missing AVERAGE row or perfect lines")
		}
	}
	// The headline direction: the proposal helps on average.
	if avg := Average(cells, "4-entry DBRC (2B LO)", NormTime); avg >= 1.0 {
		t.Errorf("average normalized time %.3f, expected < 1", avg)
	}
	if avg := Average(cells, "4-entry DBRC (2B LO)", NormLinkED2P); avg >= 1.0 {
		t.Errorf("average link ED2P %.3f, expected < 1", avg)
	}
}
