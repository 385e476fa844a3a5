package cmp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/workload"
)

// torus1024Config is the 1024-tile scale cell: FFT on a torus with a
// 4-entry, 2-byte-LO DBRC and VL+B wires.
func torus1024Config() RunConfig {
	return RunConfig{
		App:           "FFT",
		RefsPerCore:   40,
		WarmupRefs:    10,
		Seed:          1,
		Topology:      "torus",
		Tiles:         1024,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	}
}

// TestScaleSetupAllocations bounds the objects one 1024-tile NewSystem
// allocates. Per-pair compression state once made this 8.4 M objects;
// the flat codec keeps setup to the per-tile structures, the dense
// mesh link table to one object for all links, and each core's random
// stream lives inside the workload's core state. Serving the App
// through the prefetcher costs one more object, the Prefetch: its
// rings and producer come with the first Next, in Run.
func TestScaleSetupAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-tile system construction")
	}
	cfg := torus1024Config()
	build := func(cfg RunConfig) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := NewSystem(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs := build(cfg)
	t.Logf("NewSystem at 1024 tiles: %.0f allocations", allocs)
	if allocs >= 14_900 {
		t.Fatalf("NewSystem at 1024 tiles made %.0f allocations, want < 14900", allocs)
	}
	app, err := workload.NewNamedApp(cfg.App, 1024, cfg.RefsPerCore, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	appAllocs := testing.AllocsPerRun(5, func() {
		if _, err := workload.NewNamedApp(cfg.App, 1024, cfg.RefsPerCore, cfg.Seed); err != nil {
			t.Fatal(err)
		}
	})
	given := cfg
	given.Generator = app
	if direct := build(given); allocs != direct+appAllocs+1 {
		t.Errorf("NewSystem made %.0f allocations, want %.0f: %.0f with the App given, %.0f for the App, 1 for the Prefetch",
			allocs, direct+appAllocs+1, direct, appAllocs)
	}
}

// TestNewSystemBuildsCodecOnce checks that sizing the VL channel does
// not build a second codec, and that a layout NewSystem rejects builds
// none: a DBRC's state grows with the square of the tile count.
func TestNewSystemBuildsCodecOnce(t *testing.T) {
	builds := 0
	orig := buildCodec
	buildCodec = func(s compress.Spec, cores int) (compress.Codec, error) {
		builds++
		return orig(s, cores)
	}
	defer func() { buildCodec = orig }()

	cfg := hetCfg("FFT", 10, compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2})
	if _, err := NewSystem(cfg); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("NewSystem built the codec %d times, want 1", builds)
	}
	// A non-compressing scheme on VL wires is an error that names the
	// scheme and the layout.
	cfg.Compression = compress.Spec{Kind: "none"}
	_, err := NewSystem(cfg)
	if err == nil || !strings.Contains(err.Error(), "scheme none") || !strings.Contains(err.Error(), "layout vlb") {
		t.Errorf("NewSystem with VL wiring and an uncompressed scheme: %v", err)
	}
	if builds != 1 {
		t.Fatalf("NewSystem built a codec for a layout it rejects")
	}
}

// TestNewSystemRejectsEmptyMeasurementWindow pins the warmup bounds. A
// warmup of RefsPerCore or more leaves nothing to measure: every core
// reaches the warmup barrier after its last reference, so the window is
// about one cycle long. A negative warmup never reaches the barrier and
// would silently measure from cold. Both must fail with an error naming
// the two values.
func TestNewSystemRejectsEmptyMeasurementWindow(t *testing.T) {
	cases := []struct {
		refs, warmup int
		ok           bool
	}{
		{refs: 100, warmup: 0, ok: true},
		{refs: 100, warmup: 50, ok: true},
		{refs: 100, warmup: 99, ok: true},
		{refs: 100, warmup: 100},
		{refs: 100, warmup: 101},
		{refs: 8000, warmup: 8000},
		{refs: 1000, warmup: 8000},
		{refs: 100, warmup: -1},
	}
	for _, c := range cases {
		cfg := baselineCfg("FFT", c.refs)
		cfg.WarmupRefs = c.warmup
		_, err := NewSystem(cfg)
		if c.ok {
			if err != nil {
				t.Errorf("refs %d warmup %d: %v", c.refs, c.warmup, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("refs %d warmup %d accepted", c.refs, c.warmup)
			continue
		}
		for _, want := range []string{fmt.Sprint(c.refs), fmt.Sprint(c.warmup)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("refs %d warmup %d: error %q does not name %s", c.refs, c.warmup, err, want)
			}
		}
	}
}

// TestNewSystemRejectsBadCodecParameters pins that out-of-range codec
// parameters from the command line are returned as errors, on both
// the baseline and the VL+B wiring, instead of reaching the codec
// constructors' panics.
func TestNewSystemRejectsBadCodecParameters(t *testing.T) {
	cases := []struct {
		spec compress.Spec
		want string
	}{
		{compress.Spec{Kind: "dbrc", Entries: 0, LowOrderBytes: 2}, "entries must be 1..256, got 0"},
		{compress.Spec{Kind: "dbrc", Entries: 300, LowOrderBytes: 2}, "entries must be 1..256, got 300"},
		{compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 0}, "low-order bytes must be 1 or 2, got 0"},
		{compress.Spec{Kind: "stride", LowOrderBytes: 3}, "low-order bytes must be 1 or 2, got 3"},
		{compress.Spec{Kind: "perfect", LowOrderBytes: 3}, "low-order bytes must be 1 or 2, got 3"},
	}
	for _, c := range cases {
		for _, het := range []bool{false, true} {
			cfg := hetCfg("FFT", 100, c.spec)
			cfg.Heterogeneous = het
			_, err := NewSystem(cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%+v (het %v): error %v, want one containing %q", c.spec, het, err, c.want)
			}
		}
	}
}

// TestNewSystemRejectsBadNetworkTiming pins the timing knobs' bounds.
// Each rejected value used to run on some other timing: an overflowing
// or infinite scale converted to a negative int and ran on 1-cycle
// wires, NaN and negative scales meant 1.0, and a negative router
// latency meant the layout's 2 cycles.
func TestNewSystemRejectsBadNetworkTiming(t *testing.T) {
	cases := []struct {
		name   string
		router int
		scale  float64
		want   string // "" when the configuration is valid
	}{
		{name: "defaults"},
		{name: "slow wires", scale: 2},
		{name: "fast wires", scale: 0.2},
		{name: "deep routers", router: 4},
		{name: "scale 1e20", scale: 1e20, want: "above 2^62 cycles"},
		{name: "scale +Inf", scale: math.Inf(1), want: "finite and non-negative, got +Inf"},
		{name: "scale NaN", scale: math.NaN(), want: "finite and non-negative, got NaN"},
		{name: "scale -3", scale: -3, want: "finite and non-negative, got -3"},
		{name: "router -5", router: -5, want: "router latency must be >= 1 cycle, got -5"},
	}
	for _, c := range cases {
		for _, het := range []bool{false, true} {
			cfg := hetCfg("FFT", 100, compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2})
			cfg.Heterogeneous = het
			cfg.RouterLatency, cfg.LinkCyclesScale = c.router, c.scale
			_, err := NewSystem(cfg)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("%s (het %v): %v", c.name, het, err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Errorf("%s (het %v): error %v, want one containing %q", c.name, het, err, c.want)
			}
		}
	}
}
