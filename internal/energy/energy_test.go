package energy

import (
	"math"
	"testing"

	"tilesim/internal/wire"
)

func TestLinkDynAccumulation(t *testing.T) {
	m := NewMeter(16)
	// 11 bytes over one 5mm B8X link: 88 bits * 0.5 * 3.3125 pJ.
	m.LinkTraversal(wire.B8X, 11, 1)
	want := 88 * 0.5 * wire.DynamicEnergyPerTransition(wire.B8X, wire.LinkLengthM)
	got := float64(m.LinkSince(DynSnapshot{}, 0).DynJ)
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("link dyn %g, want %g", got, want)
	}
	// VL wires cost less per bit.
	m2 := NewMeter(16)
	m2.LinkTraversal(wire.VL5B, 11, 3)
	if float64(m2.LinkSince(DynSnapshot{}, 0).DynJ) >= got {
		t.Fatal("VL traversal should cost less than B8X")
	}
}

// TestLinkDynCachedPerKindIsExact feeds the meter traversals that
// alternate wire kinds: every addend must be the uncached
// bits * Alpha * DynamicEnergyPerTransition over a wire.LinkLengthM
// link, bit for bit.
func TestLinkDynCachedPerKindIsExact(t *testing.T) {
	m := NewMeter(16)
	var want Joules
	for _, h := range []struct {
		kind  wire.Kind
		bytes int
	}{
		{wire.B8X, 11}, {wire.VL5B, 5}, {wire.B8X, 67},
		{wire.VL5B, 4}, {wire.B8X, 11}, {wire.PW4X, 3},
	} {
		m.LinkTraversal(h.kind, h.bytes, 1)
		want += Joules(float64(h.bytes*8) * Alpha * wire.DynamicEnergyPerTransition(h.kind, wire.LinkLengthM))
		if got := m.LinkSince(DynSnapshot{}, 0).DynJ; got != want {
			t.Fatalf("after %+v: link dyn %g, want %g exactly", h, got, want)
		}
	}
}

func TestStaticIntegratesOverTime(t *testing.T) {
	m := NewMeter(16)
	m.AddStaticWires(wire.B8X, 600*48)
	e1 := m.LinkSince(DynSnapshot{}, 4_000_000).StaticJ // 1 ms
	e2 := m.LinkSince(DynSnapshot{}, 8_000_000).StaticJ
	if math.Abs(float64(e2-2*e1))/float64(e1) > 1e-12 {
		t.Fatalf("static not linear in time: %g vs %g", e1, e2)
	}
	wantW := wire.StaticPowerWatts(wire.B8X, wire.LinkLengthM, 600*48) * LinkLeakageDuty
	if gotW := float64(e1) / float64(m.Seconds(4_000_000)); math.Abs(gotW-wantW)/wantW > 1e-9 {
		t.Fatalf("static power %g W, want %g W", gotW, wantW)
	}
}

func TestHeterogeneousStandingLeakageBelowBaseline(t *testing.T) {
	// 75B of B8X vs 5B VL + 34B B8X: fewer, fatter wires leak less.
	base := NewMeter(16)
	base.AddStaticWires(wire.B8X, 75*8*48)
	het := NewMeter(16)
	het.AddStaticWires(wire.VL5B, 5*8*48)
	het.AddStaticWires(wire.B8X, 34*8*48)
	b := base.LinkSince(DynSnapshot{}, 1_000_000).StaticJ
	h := het.LinkSince(DynSnapshot{}, 1_000_000).StaticJ
	if h >= b {
		t.Fatalf("heterogeneous static %g not below baseline %g", h, b)
	}
	if ratio := float64(h) / float64(b); ratio < 0.40 || ratio > 0.60 {
		t.Fatalf("static ratio %.2f, expected ~0.48 from Table 2/3", ratio)
	}
}

func TestRouterEnergy(t *testing.T) {
	m := NewMeter(16)
	m.RouterHop(67, 2)
	want := 67*RouterDynPerByteJ + 2*RouterDynPerFlitJ
	if got := float64(m.Snapshot().RouterDynJ); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("router dyn %g, want %g", got, want)
	}
	// Interconnect includes router static.
	ic := m.InterconnectSince(DynSnapshot{}, 4_000_000)
	if ic <= m.Snapshot().RouterDynJ {
		t.Fatal("interconnect energy must include router leakage")
	}
}

func TestED2P(t *testing.T) {
	// 1 J over 4e9 cycles (1 s) = 1 J*s^2.
	if got := ED2P(1, 4_000_000_000); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ED2P = %g, want 1", got)
	}
	// Halving time at equal energy quarters ED2P.
	r := ED2P(1, 2_000_000_000) / ED2P(1, 4_000_000_000)
	if math.Abs(r-0.25) > 1e-12 {
		t.Fatalf("ED2P time scaling ratio %g, want 0.25", r)
	}
}

func TestCalibrate(t *testing.T) {
	// Interconnect spends 0.36 J in 1 s => chip is 1 J total at 36%,
	// so rest is 0.64 J over 1 s = 0.64 W.
	f := Calibrate(0.36, 4_000_000_000, 0.36, 16)
	if math.Abs(f.RestW-0.64)/0.64 > 1e-12 {
		t.Fatalf("rest power %g, want 0.64", f.RestW)
	}
	if math.Abs(f.PerCoreW()-0.04)/0.04 > 1e-12 {
		t.Fatalf("per-core %g, want 0.04", f.PerCoreW())
	}
	chip, err := f.ChipJ(0.36, 4_000_000_000, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(chip)-1.0) > 1e-9 {
		t.Fatalf("baseline chip energy %g, want 1.0", chip)
	}
}

func TestCalibrateRejectsBadInputs(t *testing.T) {
	for i, f := range []func(){
		func() { Calibrate(1, 1000, 0, 16) },
		func() { Calibrate(1, 1000, 1, 16) },
		func() { Calibrate(0, 1000, 0.36, 16) },
		func() { Calibrate(1, 0, 0.36, 16) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad calibration %d accepted", i)
				}
			}()
			f()
		}()
	}
}

func TestCompressionHardwareOverheadGrowsWithEntries(t *testing.T) {
	f := Calibrate(0.36, 4_000_000_000, 0.36, 16)
	var prev Joules
	for i, scheme := range []string{"2-byte Stride", "4-entry DBRC", "16-entry DBRC", "64-entry DBRC"} {
		chip, err := f.ChipJ(0.36, 4_000_000_000, scheme, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if chip <= 1.0 {
			t.Errorf("%s: chip energy %g does not include hardware overhead", scheme, chip)
		}
		if i > 0 && chip <= prev {
			t.Errorf("%s: overhead %g not above previous %g", scheme, chip-1, prev-1)
		}
		prev = chip
	}
	// 64-entry DBRC static is 3.76% of core power: the chip-level
	// overhead must be percent-scale, the Figure 7 inversion driver.
	chip64, _ := f.ChipJ(0.36, 4_000_000_000, "64-entry DBRC", 0)
	overhead := float64(chip64) - 1.0
	if overhead < 0.005 || overhead > 0.05 {
		t.Errorf("64-entry DBRC chip overhead %.4f, want percent-scale", overhead)
	}
}

func TestChipJUnknownScheme(t *testing.T) {
	f := Calibrate(0.36, 4_000_000_000, 0.36, 16)
	if _, err := f.ChipJ(0.36, 1000, "8-track tape", 0); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestCompressionEvents(t *testing.T) {
	m := NewMeter(16)
	for i := 0; i < 5; i++ {
		m.CompressionEvent()
	}
	if m.ComprEvents() != 5 {
		t.Fatalf("events = %d", m.ComprEvents())
	}
}

func TestSnapshotWindows(t *testing.T) {
	m := NewMeter(16)
	m.AddStaticWires(wire.B8X, 600*48)
	m.LinkTraversal(wire.B8X, 67, 1)
	m.RouterHop(67, 1)
	m.CompressionEvent()
	snap := m.Snapshot()
	// More activity after the snapshot.
	m.LinkTraversal(wire.B8X, 11, 1)
	m.RouterHop(11, 1)
	m.CompressionEvent()
	m.CompressionEvent()

	window := m.LinkSince(snap, 4_000_000)
	full := m.LinkSince(DynSnapshot{}, 4_000_000)
	if window.DynJ >= full.DynJ {
		t.Fatal("windowed dynamic energy should exclude pre-snapshot activity")
	}
	want := 11 * 8 * Alpha * wire.DynamicEnergyPerTransition(wire.B8X, wire.LinkLengthM)
	if math.Abs(float64(window.DynJ)-want)/want > 1e-9 {
		t.Fatalf("window dyn %g, want %g", window.DynJ, want)
	}
	// Static integrates over the window length regardless of snapshot.
	if window.StaticJ != full.StaticJ {
		t.Fatal("static energy should depend only on the window cycles")
	}
	if ic := m.InterconnectSince(snap, 4_000_000); ic <= window.TotalJ() {
		t.Fatal("interconnect window must include router terms")
	}
	if got := m.ComprEvents() - snap.ComprEvents; got != 2 {
		t.Fatalf("window compression events %d, want 2", got)
	}
}

func TestChipJModeledSchemeFallback(t *testing.T) {
	// Untabulated DBRC sizes cost via the cacti surrogate.
	f := Calibrate(0.36, 4_000_000_000, 0.36, 16)
	chip8, err := f.ChipJ(0.36, 4_000_000_000, "8-entry DBRC", 1000)
	if err != nil {
		t.Fatal(err)
	}
	chip4, _ := f.ChipJ(0.36, 4_000_000_000, "4-entry DBRC", 1000)
	chip16, _ := f.ChipJ(0.36, 4_000_000_000, "16-entry DBRC", 1000)
	if chip8 <= chip4 || chip8 >= chip16 {
		t.Fatalf("8-entry cost %g should fall between 4-entry %g and 16-entry %g", chip8, chip4, chip16)
	}
}
