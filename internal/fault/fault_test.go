package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestStreamsAreDeterministicAndIndependent(t *testing.T) {
	a1 := NewStream(42, saltFlit, 7)
	a2 := NewStream(42, saltFlit, 7)
	b := NewStream(42, saltFlit, 8)
	c := NewStream(43, saltFlit, 7)
	sameAsB, sameAsC := true, true
	for i := 0; i < 1000; i++ {
		va := a1.Uint64()
		if va != a2.Uint64() {
			t.Fatalf("same-seed streams diverge at draw %d", i)
		}
		if va != b.Uint64() {
			sameAsB = false
		}
		if va != c.Uint64() {
			sameAsC = false
		}
	}
	if sameAsB {
		t.Error("different salts produced identical streams")
	}
	if sameAsC {
		t.Error("different seeds produced identical streams")
	}
}

func TestStreamFloat64Range(t *testing.T) {
	s := NewStream(1, saltStall, 0)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("draw %d = %g outside [0,1)", i, v)
		}
	}
}

func TestCorruptTraversalRateTracksBER(t *testing.T) {
	// With BER b over n bits, the per-traversal corruption probability
	// is 1-(1-b)^n; check the empirical rate lands near it, and that a
	// noisier VL plane corrupts more often than the B plane.
	cfg := Config{BER: 1e-4, VLBERScale: 8}
	in, err := NewInjector(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 200000
	const bits = 536 // a 67-byte data message
	sB, sVL := in.FlitStream(0, PlaneB), in.FlitStream(0, PlaneVL)
	countB, countVL := 0, 0
	for i := 0; i < draws; i++ {
		if in.Corrupt(sB, PlaneB, bits) {
			countB++
		}
		if in.Corrupt(sVL, PlaneVL, bits) {
			countVL++
		}
	}
	rateB := float64(countB) / draws
	// p = 1-(1-1e-4)^536 ~= 0.0522
	if rateB < 0.045 || rateB > 0.060 {
		t.Errorf("B-plane corruption rate %.4f far from expected ~0.052", rateB)
	}
	if countVL <= countB*4 {
		t.Errorf("VL plane (8x BER) corrupted %d traversals vs B's %d; expected far more", countVL, countB)
	}
}

func TestCorruptTraversalZeroBERNeverFires(t *testing.T) {
	in, err := NewInjector(Config{StallProb: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := in.FlitStream(3, PlaneB)
	for i := 0; i < 1000; i++ {
		if in.Corrupt(s, PlaneB, 600) {
			t.Fatal("corruption drawn with zero BER")
		}
	}
}

func TestInjectorSameSeedIdenticalDraws(t *testing.T) {
	cfg := Config{BER: 1e-3, StallProb: 0.1}
	mk := func(seed int64) (flips []bool, stalls []uint64) {
		in, err := NewInjector(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		// One stream per (link, plane) and per router, derived on first
		// use, as the mesh keeps them.
		var flit [7][NumPlanes]*Stream
		var stall [16]*Stream
		for i := 0; i < 500; i++ {
			link, plane, router := i%7, i%NumPlanes, i%16
			if flit[link][plane] == nil {
				flit[link][plane] = in.FlitStream(link, plane)
			}
			if stall[router] == nil {
				stall[router] = in.StallStream(router)
			}
			flips = append(flips, in.Corrupt(flit[link][plane], plane, 88))
			stalls = append(stalls, in.Stall(stall[router]))
		}
		return
	}
	f1, s1 := mk(9)
	f2, s2 := mk(9)
	f3, _ := mk(10)
	if !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(s1, s2) {
		t.Error("same-seed injectors drew different fault sequences")
	}
	if reflect.DeepEqual(f1, f3) {
		t.Error("different seeds drew identical corruption sequences")
	}
}

func TestPlaneOutageWindow(t *testing.T) {
	in, err := NewInjector(Config{OutagePlane: "VL", OutageStart: 100, OutageCycles: 50}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		plane int
		now   uint64
		down  bool
	}{
		{PlaneVL, 99, false},
		{PlaneVL, 100, true},
		{PlaneVL, 149, true},
		{PlaneVL, 150, false},
		{PlaneB, 120, false},
		{PlanePW, 120, false},
	}
	for _, c := range cases {
		if got := in.PlaneDown(c.plane, c.now); got != c.down {
			t.Errorf("PlaneDown(%d, %d) = %v, want %v", c.plane, c.now, got, c.down)
		}
	}
	if in.OutageEnd() != 150 {
		t.Errorf("OutageEnd() = %d, want 150", in.OutageEnd())
	}
}

func TestBackoffBoundedExponential(t *testing.T) {
	want := []uint64{4, 8, 16, 32, 64, 128, 256, 256, 256}
	for i, w := range want {
		if got := Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %d, want %d", i+1, got, w)
		}
	}
	if Backoff(0) != Backoff(1) {
		t.Error("Backoff clamps attempt to 1")
	}
	if Backoff(1000) != backoffCap {
		t.Error("Backoff must stay capped for huge attempts")
	}
}

func TestEnabledAndValidate(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero Config must be disabled")
	}
	for _, c := range []Config{
		{BER: 1e-9},
		{OutagePlane: "B", OutageCycles: 10},
		{StallProb: 0.01},
	} {
		if !c.Enabled() {
			t.Errorf("%+v should be enabled", c)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%+v should validate: %v", c, err)
		}
	}
	// An outage plane with a zero-length window is inert.
	if (Config{OutagePlane: "VL"}).Enabled() {
		t.Error("zero-length outage must not enable injection")
	}
	for _, c := range []Config{
		{BER: -1},
		{BER: 1},
		{BER: 0.5, VLBERScale: 3}, // VL BER 1.5 out of range
		{StallProb: 2},
		{StallProb: -0.1},
		{StallCycles: -1},
		{RetryLimit: -1},
		{OutagePlane: "X"},
		{BER: math.NaN()},
		{BER: 1e-5, VLBERScale: math.NaN()},
		{BER: 1e-5, VLBERScale: math.Inf(1)},
		{StallProb: math.NaN()},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v should fail validation", c)
		}
	}
}

// TestCanonicalCoversEveryField guards the encoding against silently
// dropping a newly added Config field (the cmp.RunConfig analogue).
func TestCanonicalCoversEveryField(t *testing.T) {
	base := Config{BER: 1e-6, OutagePlane: "VL", OutageStart: 10, OutageCycles: 5, StallProb: 0.1}
	ref := base.Canonical()
	mutate := map[string]func(*Config){
		"BER":          func(c *Config) { c.BER = 2e-6 },
		"VLBERScale":   func(c *Config) { c.VLBERScale = 4 },
		"OutagePlane":  func(c *Config) { c.OutagePlane = "B" },
		"OutageStart":  func(c *Config) { c.OutageStart = 11 },
		"OutageCycles": func(c *Config) { c.OutageCycles = 6 },
		"StallProb":    func(c *Config) { c.StallProb = 0.2 },
		"StallCycles":  func(c *Config) { c.StallCycles = 16 },
		"RetryLimit":   func(c *Config) { c.RetryLimit = 3 },
	}
	for name, mut := range mutate {
		cfg := base
		mut(&cfg)
		if cfg.Canonical() == ref {
			t.Errorf("mutating %s does not change the canonical encoding", name)
		}
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := mutate[typ.Field(i).Name]; !ok {
			t.Errorf("Config field %s is not covered: extend Canonical() and this test", typ.Field(i).Name)
		}
	}
	// Equivalent spellings normalize to one encoding.
	implicit := Config{BER: 1e-6}
	explicit := Config{BER: 1e-6, VLBERScale: 1, StallCycles: defaultStallCycles, RetryLimit: DefaultRetryLimit}
	if implicit.Canonical() != explicit.Canonical() {
		t.Errorf("default spellings encode differently:\n  %s\n  %s",
			implicit.Canonical(), explicit.Canonical())
	}
	if !strings.Contains((Config{}).Canonical(), "outage=off") {
		t.Error("no-outage encoding should read outage=off")
	}
}
