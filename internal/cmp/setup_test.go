package cmp

import (
	"fmt"
	"strings"
	"testing"

	"tilesim/internal/compress"
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
// the flat codec keeps setup to the per-tile structures.
func TestScaleSetupAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-tile system construction")
	}
	cfg := torus1024Config()
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := NewSystem(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewSystem at 1024 tiles: %.0f allocations", allocs)
	if allocs >= 100_000 {
		t.Fatalf("NewSystem at 1024 tiles made %.0f allocations, want < 100000", allocs)
	}
}

// TestNewSystemBuildsCodecOnce checks that sizing the VL channel does
// not build a second codec: a DBRC's state grows with the square of the
// tile count.
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
	// Sizing the channel alone builds nothing.
	if _, err := cfg.VLWidthBytes(); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("VLWidthBytes built a codec")
	}
	// A non-compressing scheme on VL wires is still an error.
	cfg.Compression = compress.Spec{Kind: "none"}
	if _, err := cfg.VLWidthBytes(); err == nil {
		t.Error("VL wiring accepted an uncompressed scheme")
	}
	if _, err := NewSystem(cfg); err == nil {
		t.Error("NewSystem accepted VL wiring with an uncompressed scheme")
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
