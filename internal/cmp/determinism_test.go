package cmp

import (
	"reflect"
	"testing"

	"tilesim/internal/compress"
)

// TestSameSeedRunsAreIdentical is the regression test backing the
// tilesimvet determinism rule: two runs with the same seed must agree
// on the whole Result, every metric included, and a different seed must
// change it. The rows cover both plane layouts (B only and VL+B). Run
// under -race this also shakes out data races that could reorder
// events.
func TestSameSeedRunsAreIdentical(t *testing.T) {
	stride := hetCfg("FFT", 300, compress.Spec{Kind: "stride", LowOrderBytes: 2})
	stride.Seed = 7
	for _, c := range []struct {
		name string
		cfg  RunConfig
	}{
		{"MP3D-baseline", baselineCfg("MP3D", 400)},
		{"Barnes-Hut-baseline", baselineCfg("Barnes-Hut", 300)},
		{"FFT-stride-VLB", stride},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(cfg RunConfig) Result {
				t.Helper()
				r, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			first := run(c.cfg)
			if second := run(c.cfg); !reflect.DeepEqual(first, second) {
				t.Errorf("same-seed runs differ:\n  run 1: %+v\n  run 2: %+v", fingerprintOf(first), fingerprintOf(second))
			}
			reseeded := c.cfg
			reseeded.Seed++
			if reflect.DeepEqual(run(reseeded), first) {
				t.Errorf("seeds %d and %d produced identical runs", c.cfg.Seed, reseeded.Seed)
			}
		})
	}
}
