package cmp

import (
	"math/bits"
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/fault"
)

// fuzzMaxTiles bounds the machine one fuzz input builds: valid tile
// counts above it are mapped down to it, so an input costs
// milliseconds, while invalid counts pass through to the validation
// they are meant to exercise.
const fuzzMaxTiles = 64

// FuzzNewSystem feeds arbitrary RunConfig values to NewSystem, which
// must return a system or an error and never panic: every field is
// user input from tilesim's flags or a sweep spec, validated where it
// is decoded (DESIGN.md §14.1). The checked-in corpus
// (testdata/fuzz/FuzzNewSystem) holds the paper's headline
// configuration, the out-of-range codec parameters that used to panic,
// the router latencies and wire-latency scales that used to run on
// other timings, and an unknown layout and VL layouts with an
// uncompressed scheme, which mesh.Layout refuses. Run the fuzzer with
//
//	go test -run '^$' -fuzz '^FuzzNewSystem$' -fuzztime 30s ./internal/cmp
func FuzzNewSystem(f *testing.F) {
	f.Fuzz(func(t *testing.T, app string, refs, warmup int, seed int64, topo string, tiles int,
		kind string, entries, lo int, het bool, wiring string, _ bool,
		routerLatency int, linkScale float64, series int,
		ber, vlScale float64, outagePlane string, outageStart, outageCycles uint64,
		stallProb float64, stallCycles, retryLimit int) {
		if tiles > fuzzMaxTiles && tiles <= 1024 && bits.OnesCount(uint(tiles)) == 1 {
			tiles = fuzzMaxTiles
		}
		cfg := RunConfig{
			App: app, RefsPerCore: refs, WarmupRefs: warmup, Seed: seed,
			Topology: topo, Tiles: tiles,
			Compression:   compress.Spec{Kind: kind, Entries: entries, LowOrderBytes: lo},
			Heterogeneous: het, Wiring: wiring,
			RouterLatency: routerLatency, LinkCyclesScale: linkScale, SeriesInterval: series,
			Faults: fault.Config{
				BER: ber, VLBERScale: vlScale,
				OutagePlane: outagePlane, OutageStart: outageStart, OutageCycles: outageCycles,
				StallProb: stallProb, StallCycles: stallCycles, RetryLimit: retryLimit,
			},
		}
		sys, err := NewSystem(cfg)
		if (sys == nil) == (err == nil) {
			t.Fatalf("NewSystem(%+v) returned system %v and error %v", cfg, sys != nil, err)
		}
	})
}
