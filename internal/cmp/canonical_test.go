package cmp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/workload"
)

func TestCanonicalNormalizesEquivalentSpellings(t *testing.T) {
	base := RunConfig{
		App: "FFT", RefsPerCore: 1000, WarmupRefs: 400, Seed: 1,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	}
	explicit := base
	explicit.Heterogeneous = false
	explicit.Wiring = "vlb"
	a, err := base.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("Heterogeneous=true and Wiring=vlb encode differently:\n  %s\n  %s", a, b)
	}

	// The two PW layouts run Reply Partitioning, and their encodings
	// say so.
	for _, c := range []struct {
		wiring string
		rp     bool
	}{{"lpw", true}, {"vlbpw", true}, {"vlb", false}, {"baseline", false}} {
		enc, err := RunConfig{App: "FFT", RefsPerCore: 1000, Seed: 1, Wiring: c.wiring}.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("rp=%t", c.rp); !strings.Contains(enc, want) {
			t.Errorf("%s encoding lacks %s: %s", c.wiring, want, enc)
		}
	}
}

func TestCanonicalRejectsGeneratorConfigs(t *testing.T) {
	gen, err := workload.NewNamedApp("FFT", 16, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{App: "FFT", RefsPerCore: 100, Seed: 1, Generator: gen}
	if _, err := cfg.Canonical(); err == nil {
		t.Error("config with custom Generator must have no canonical encoding")
	}
}

// TestCanonicalCoversEveryField guards the encoding against silently
// dropping a newly added RunConfig or compress.Spec field: every
// current field must influence the string.
func TestCanonicalCoversEveryField(t *testing.T) {
	base := RunConfig{
		App: "FFT", RefsPerCore: 1000, WarmupRefs: 400, Seed: 1,
		Compression: compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
	}
	enc := func(c RunConfig) string {
		t.Helper()
		s, err := c.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := enc(base)
	mutate := map[string]func(*RunConfig){
		"App":                       func(c *RunConfig) { c.App = "MP3D" },
		"RefsPerCore":               func(c *RunConfig) { c.RefsPerCore++ },
		"WarmupRefs":                func(c *RunConfig) { c.WarmupRefs++ },
		"Seed":                      func(c *RunConfig) { c.Seed++ },
		"Topology":                  func(c *RunConfig) { c.Topology = "torus" },
		"Tiles":                     func(c *RunConfig) { c.Tiles = 64 },
		"Compression.Kind":          func(c *RunConfig) { c.Compression.Kind = "perfect" },
		"Compression.Entries":       func(c *RunConfig) { c.Compression.Entries++ },
		"Compression.LowOrderBytes": func(c *RunConfig) { c.Compression.LowOrderBytes = 1 },
		"Heterogeneous":             func(c *RunConfig) { c.Heterogeneous = true },
		"Wiring":                    func(c *RunConfig) { c.Wiring = "vlbpw" },
		"RouterLatency":             func(c *RunConfig) { c.RouterLatency = 4 },
		"LinkCyclesScale":           func(c *RunConfig) { c.LinkCyclesScale = 0.5 },
		"Faults":                    func(c *RunConfig) { c.Faults.BER = 1e-6 },
		"SeriesInterval":            func(c *RunConfig) { c.SeriesInterval = 1024 },
	}
	for name, mut := range mutate {
		cfg := base
		mut(&cfg)
		if enc(cfg) == ref {
			t.Errorf("mutating %s does not change the canonical encoding", name)
		}
	}
	// Disabled fault injection must not perturb pre-fault cache keys.
	if strings.Contains(ref, "faults=") {
		t.Errorf("fault-free encoding mentions faults: %s", ref)
	}
	// Disabled series sampling must not perturb pre-series cache keys.
	if strings.Contains(ref, "series=") {
		t.Errorf("series-free encoding mentions series: %s", ref)
	}

	// Completeness: every RunConfig field, and every field of its
	// compress.Spec, must appear above, so adding a field without
	// extending Canonical() (and this test) fails. Generator is the
	// deliberate exception — it makes a config uncacheable instead of
	// encoding. fault.Config's fields have their own reflective test.
	typ := reflect.TypeOf(RunConfig{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if name == "Generator" {
			continue
		}
		if name == "Compression" {
			spec := typ.Field(i).Type
			for j := 0; j < spec.NumField(); j++ {
				f := spec.Field(j)
				if _, ok := mutate[name+"."+f.Name]; f.IsExported() && !ok {
					t.Errorf("compress.Spec field %s is not covered: extend Canonical() and this test", f.Name)
				}
			}
			continue
		}
		if _, ok := mutate[name]; !ok {
			t.Errorf("RunConfig field %s is not covered: extend Canonical() and this test", name)
		}
	}
}
