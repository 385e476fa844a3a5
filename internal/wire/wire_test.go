package wire

import (
	"math"
	"testing"
)

func TestCatalogMatchesTable2(t *testing.T) {
	// Exact values from paper Table 2.
	cases := []struct {
		k                        Kind
		relLat, relArea, dyn, st float64
	}{
		{B8X, 1.0, 1.0, 2.65, 1.0246},
		{B4X, 1.6, 0.5, 2.9, 1.1578},
		{L8X, 0.5, 4.0, 1.46, 0.5670},
		{PW4X, 3.2, 0.5, 0.87, 0.3074},
	}
	for _, c := range cases {
		got := Lookup(c.k)
		if got.RelLatency != c.relLat || got.RelArea != c.relArea ||
			got.DynPowerWPerM != c.dyn || got.StaticWPerM != c.st {
			t.Errorf("%v: catalog %+v does not match Table 2 row %+v", c.k, got, c)
		}
	}
}

func TestCatalogMatchesTable3(t *testing.T) {
	cases := []struct {
		k                        Kind
		relLat, relArea, dyn, st float64
	}{
		{VL3B, 0.27, 14.0, 0.87, 0.3065},
		{VL4B, 0.31, 10.0, 1.00, 0.3910},
		{VL5B, 0.35, 8.0, 1.13, 0.4395},
	}
	for _, c := range cases {
		got := Lookup(c.k)
		if got.RelLatency != c.relLat || got.RelArea != c.relArea ||
			got.DynPowerWPerM != c.dyn || got.StaticWPerM != c.st {
			t.Errorf("%v: catalog %+v does not match Table 3 row %+v", c.k, got, c)
		}
	}
}

func TestVLForWidth(t *testing.T) {
	for _, c := range []struct {
		bytes int
		want  Kind
	}{{3, VL3B}, {4, VL4B}, {5, VL5B}} {
		got, err := VLForWidth(c.bytes)
		if err != nil || got != c.want {
			t.Errorf("VLForWidth(%d) = %v, %v; want %v", c.bytes, got, err, c.want)
		}
	}
	if _, err := VLForWidth(6); err == nil {
		t.Error("VLForWidth(6) should error: no such design point")
	}
	if _, err := VLForWidth(0); err == nil {
		t.Error("VLForWidth(0) should error")
	}
}

func TestLatencyCycles(t *testing.T) {
	// The proposal's link latencies in whole 4 GHz cycles over 5 mm.
	cases := map[Kind]int{
		B8X:  8,  // baseline: 2.0 ns
		B4X:  13, // 1.6 * 8 = 12.8 -> 13
		L8X:  4,  // 0.5 * 8
		PW4X: 26, // 3.2 * 8 = 25.6 -> 26
		VL3B: 3,  // 0.27 * 8 = 2.16 -> 3
		VL4B: 3,  // 0.31 * 8 = 2.48 -> 3
		VL5B: 3,  // 0.35 * 8 = 2.80 -> 3
	}
	for k, want := range cases {
		if got := LatencyCycles(k); got != want {
			t.Errorf("LatencyCycles(%v) = %d, want %d", k, got, want)
		}
	}
}

func TestVLWiresFasterThanLWires(t *testing.T) {
	// The whole point of VL-Wires: strictly lower latency than L-Wires.
	for _, k := range Table3Kinds() {
		if Lookup(k).RelLatency >= Lookup(L8X).RelLatency {
			t.Errorf("%v relative latency %.2f is not below L-Wire's %.2f",
				k, Lookup(k).RelLatency, Lookup(L8X).RelLatency)
		}
	}
}

func TestDynamicEnergyPerTransition(t *testing.T) {
	// B8X at 2.65 W/m with alpha=1 at 4 GHz over 5 mm:
	// 2.65 * 0.005 / 4e9 = 3.3125e-12 J.
	got := DynamicEnergyPerTransition(B8X, 5e-3)
	want := 2.65 * 5e-3 / 4e9
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("energy = %g, want %g", got, want)
	}
	// VL and PW wires cost less energy per transition than B8X.
	for _, k := range []Kind{PW4X, VL3B} {
		if DynamicEnergyPerTransition(k, 5e-3) >= got {
			t.Errorf("%v transition energy should be below B8X", k)
		}
	}
}

func TestStaticPowerWatts(t *testing.T) {
	// 600 B8X wires (75 bytes) over 5 mm: 1.0246 * 0.005 * 600 = 3.07 W.
	got := StaticPowerWatts(B8X, 5e-3, 600)
	want := 1.0246 * 5e-3 * 600
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("static power = %g, want %g", got, want)
	}
}

func TestHeterogeneousLinkFitsAreaBudget(t *testing.T) {
	// Paper Section 4.3: each original 75-byte B8X link is replaced by
	// 3-5 bytes of VL-Wires plus 34 bytes of B-Wires, matching the metal
	// area of the baseline.
	budget := AreaUnits(B8X, 75*8)
	for _, c := range []struct {
		vl      Kind
		vlBytes int
	}{{VL3B, 3}, {VL4B, 4}, {VL5B, 5}} {
		// The paper presents these layouts as area-matched; the published
		// rounded RelArea values land within 1.5% of the 600-unit budget
		// (608 for the 3-byte point).
		area := AreaUnits(c.vl, c.vlBytes*8) + AreaUnits(B8X, 34*8)
		if area > budget*1.015 {
			t.Errorf("%v + 34B B-Wires uses %.0f area units, budget %.0f", c.vl, area, budget)
		}
		// And the layout is not wastefully small either (within 45%):
		// VL wires are area-hungry, that's the tradeoff.
		if area < budget*0.55 {
			t.Errorf("%v layout uses only %.0f of %.0f area units; layout derivation wrong?", c.vl, area, budget)
		}
	}
}

func TestLookupPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup(999) did not panic")
		}
	}()
	Lookup(Kind(999))
}

func TestKindStrings(t *testing.T) {
	for _, k := range Kinds() {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Errorf("kind %d has bad name %q", int(k), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}
