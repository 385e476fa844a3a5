package cmp

import (
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/mesh"
	"tilesim/internal/noc"
)

func baselineCfg(app string, refs int) RunConfig {
	return RunConfig{
		App:         app,
		RefsPerCore: refs,
		Seed:        1,
		Compression: compress.Spec{Kind: "none"},
	}
}

func hetCfg(app string, refs int, spec compress.Spec) RunConfig {
	return RunConfig{
		App:           app,
		RefsPerCore:   refs,
		Seed:          1,
		Compression:   spec,
		Heterogeneous: true,
	}
}

func TestBaselineRunCompletes(t *testing.T) {
	r, err := Run(baselineCfg("FFT", 800))
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecCycles == 0 {
		t.Fatal("zero execution time")
	}
	if r.Loads+r.Stores != 16*800 {
		t.Fatalf("refs executed %d, want %d", r.Loads+r.Stores, 16*800)
	}
	if r.L1Misses == 0 {
		t.Fatal("no L1 misses on a 1MB-working-set app")
	}
	if r.Net.TotalMessages() == 0 {
		t.Fatal("no network traffic")
	}
	if r.Link.TotalJ() <= 0 || r.InterconnectJ <= r.Link.TotalJ() {
		t.Fatalf("energy accounting wrong: link=%g ic=%g", r.Link.TotalJ(), r.InterconnectJ)
	}
	if r.Coverage != 0 || r.VLFraction != 0 {
		t.Fatal("baseline must not compress or use VL wires")
	}
}

// TestVLWidthDerivation checks the VL plane NewSystem builds: 3
// control bytes plus the scheme's compressed address, and none on the
// baseline.
func TestVLWidthDerivation(t *testing.T) {
	cases := []struct {
		cfg  RunConfig
		want int
	}{
		{hetCfg("FFT", 10, compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 1}), 4},
		{hetCfg("FFT", 10, compress.Spec{Kind: "dbrc", Entries: 16, LowOrderBytes: 2}), 5},
		{hetCfg("FFT", 10, compress.Spec{Kind: "stride", LowOrderBytes: 2}), 5},
		{hetCfg("FFT", 10, compress.Spec{Kind: "perfect", LowOrderBytes: 1}), 4},
		{baselineCfg("FFT", 10), 0},
	}
	for _, c := range cases {
		sys, err := NewSystem(c.cfg)
		if err != nil {
			t.Errorf("%s: %v", c.cfg.Label(), err)
			continue
		}
		if got := sys.Net.PlaneWidth(mesh.PlaneVL); got != c.want {
			t.Errorf("%s: VL width %d, want %d", c.cfg.Label(), got, c.want)
		}
	}
}

func TestHeterogeneousSpeedsUpSharingApp(t *testing.T) {
	base, err := Run(baselineCfg("MP3D", 1200))
	if err != nil {
		t.Fatal(err)
	}
	het, err := Run(hetCfg("MP3D", 1200, compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if het.ExecCycles >= base.ExecCycles {
		t.Fatalf("proposal did not speed up MP3D: %d vs %d", het.ExecCycles, base.ExecCycles)
	}
	if het.Coverage < 0.5 {
		t.Fatalf("MP3D coverage %.2f unexpectedly low", het.Coverage)
	}
	if het.VLFraction == 0 {
		t.Fatal("no messages used VL wires")
	}
	if het.LinkED2P() >= base.LinkED2P() {
		t.Fatalf("link ED2P did not improve: %g vs %g", het.LinkED2P(), base.LinkED2P())
	}
}

func TestPerfectBoundsRealSchemes(t *testing.T) {
	app := "Unstructured"
	refs := 800
	perfect, err := Run(hetCfg(app, refs, compress.Spec{Kind: "perfect", LowOrderBytes: 2}))
	if err != nil {
		t.Fatal(err)
	}
	real, err := Run(hetCfg(app, refs, compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}))
	if err != nil {
		t.Fatal(err)
	}
	// Perfect coverage bounds real schemes up to event-interleaving
	// noise (different message sizes perturb eviction and queueing
	// orders), so allow a small tolerance.
	if float64(perfect.ExecCycles) > float64(real.ExecCycles)*1.05 {
		t.Fatalf("perfect compression slower than DBRC: %d vs %d", perfect.ExecCycles, real.ExecCycles)
	}
	if perfect.Coverage != 1.0 {
		t.Fatalf("perfect coverage %.2f", perfect.Coverage)
	}
}

func TestMessageMixShape(t *testing.T) {
	// Figure 5's sanity: requests and responses dominate; every class
	// appears.
	r, err := Run(baselineCfg("Ocean-cont", 1500))
	if err != nil {
		t.Fatal(err)
	}
	total := float64(r.Net.TotalMessages())
	req := float64(r.Net.Messages[noc.ClassRequest])
	rsp := float64(r.Net.Messages[noc.ClassResponse])
	if (req+rsp)/total < 0.5 {
		t.Errorf("requests+responses = %.2f of traffic, expected the majority", (req+rsp)/total)
	}
	for c := 0; c < int(noc.NumClasses); c++ {
		if r.Net.Messages[c] == 0 {
			t.Errorf("message class %v never seen", noc.Class(c))
		}
	}
}

func TestLocalTrafficBypassesNetwork(t *testing.T) {
	r, err := Run(baselineCfg("Water-nsq", 500))
	if err != nil {
		t.Fatal(err)
	}
	if r.LocalMessages == 0 {
		t.Error("no tile-local messages; home interleaving broken?")
	}
}

func TestInvalidConfigs(t *testing.T) {
	if _, err := Run(RunConfig{App: "FFT", RefsPerCore: 0, Compression: compress.Spec{Kind: "none"}}); err == nil {
		t.Error("zero refs accepted")
	}
	if _, err := Run(RunConfig{App: "Nope", RefsPerCore: 10, Compression: compress.Spec{Kind: "none"}}); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := Run(hetCfg("FFT", 10, compress.Spec{Kind: "bogus"})); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestBarrierAppsComplete(t *testing.T) {
	// Barrier-heavy apps must not deadlock.
	for _, app := range []string{"FFT", "Radix", "LU-cont"} {
		if _, err := Run(baselineCfg(app, 600)); err != nil {
			t.Errorf("%s: %v", app, err)
		}
	}
}

func TestAllAppsRunAllConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in long mode only")
	}
	specs := []compress.Spec{
		{Kind: "none"},
		{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		{Kind: "stride", LowOrderBytes: 2},
	}
	for _, app := range []string{"Barnes-Hut", "EM3D", "Raytrace", "Water-spa", "Ocean-noncont", "LU-noncont"} {
		for _, spec := range specs {
			var cfg RunConfig
			if spec.Kind == "none" {
				cfg = baselineCfg(app, 300)
			} else {
				cfg = hetCfg(app, 300, spec)
			}
			if _, err := Run(cfg); err != nil {
				t.Errorf("%s/%s: %v", app, spec.Label(), err)
			}
		}
	}
}

func TestWarmupWindowSemantics(t *testing.T) {
	// With warmup, the measured window must exclude the warmup refs and
	// start from a synchronized, warmed state.
	cold, err := Run(baselineCfg("FFT", 2000))
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := baselineCfg("FFT", 2000)
	warmCfg.WarmupRefs = 1000
	warm, err := Run(warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The measured window covers only the post-warmup references.
	if warm.Loads+warm.Stores >= cold.Loads+cold.Stores {
		t.Fatalf("warm window refs %d not below cold %d", warm.Loads+warm.Stores, cold.Loads+cold.Stores)
	}
	if warm.ExecCycles >= cold.ExecCycles {
		t.Fatalf("warm window cycles %d not below cold %d", warm.ExecCycles, cold.ExecCycles)
	}
	// The warmed window has a lower miss rate (caches populated).
	coldRate := float64(cold.L1Misses) / float64(cold.Loads+cold.Stores)
	warmRate := float64(warm.L1Misses) / float64(warm.Loads+warm.Stores)
	if warmRate >= coldRate {
		t.Fatalf("warm miss rate %.3f not below cold %.3f", warmRate, coldRate)
	}
}

func TestWarmupChangesCoverageWindow(t *testing.T) {
	// The warmup boundary changes which traffic the coverage is measured
	// on: the cold window sees the highly-regular cold-fill stream, the
	// warmed window sees steady-state coherence traffic. Both are valid
	// coverages and they must differ — the reason figure sweeps always
	// fix the warmup explicitly.
	mk := func(refs, warmup int) float64 {
		cfg := hetCfg("Water-nsq", refs, compress.Spec{Kind: "dbrc", Entries: 16, LowOrderBytes: 2})
		cfg.WarmupRefs = warmup
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Coverage
	}
	cold := mk(3000, 0)    // 3000 measured refs from cold
	warm := mk(6000, 3000) // 3000 measured refs after 3000 warmup
	if cold <= 0 || cold > 1 || warm <= 0 || warm > 1 {
		t.Fatalf("coverages out of range: cold=%.2f warm=%.2f", cold, warm)
	}
	if cold == warm {
		t.Fatalf("cold and warmed windows measured identical coverage %.2f; snapshot not applied?", cold)
	}
}
