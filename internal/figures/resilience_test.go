package figures

import (
	"strings"
	"testing"
)

func TestResilienceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cells, table, err := Resilience(nil, Quick(), "FFT")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(ResilienceBERs()) {
		t.Fatalf("%d cells, want %d", len(cells), len(ResilienceBERs()))
	}
	if !strings.Contains(table.String(), "Norm Link ED^2P") {
		t.Error("table header missing")
	}
	base := cells[0]
	if base.Label != "0" || base.NormTime != 1 || base.NormLinkED2P != 1 {
		t.Fatalf("fault-free run not the normalization base: BER %s, time %v, link ED2P %v",
			base.Label, base.NormTime, base.NormLinkED2P)
	}
	if base.Net.CRCErrors != 0 {
		t.Fatalf("%d CRC errors without injection", base.Net.CRCErrors)
	}
	last := cells[len(cells)-1]
	if last.Net.CRCErrors == 0 || last.Net.Retries != last.Net.CRCErrors {
		t.Fatalf("BER %s did not exercise corrected retries: %d CRC errors, %d retries",
			last.Label, last.Net.CRCErrors, last.Net.Retries)
	}
	if last.NormTime <= 1 {
		t.Errorf("BER %s run not slower than fault-free: %.3f", last.Label, last.NormTime)
	}
	// Degradation is monotone-ish in BER; assert only the strong signal
	// between the extremes to keep the quick scale stable.
	if last.NormLinkED2P <= cells[1].NormLinkED2P {
		t.Errorf("link ED^2P did not grow from BER %s (%.3f) to %s (%.3f)",
			cells[1].Label, cells[1].NormLinkED2P, last.Label, last.NormLinkED2P)
	}
}
