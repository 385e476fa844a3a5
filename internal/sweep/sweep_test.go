package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/workload"
)

// tiny returns a configuration small enough for unit tests (~10ms).
func tiny(app string, seed int64, spec compress.Spec) cmp.RunConfig {
	cfg := cmp.RunConfig{App: app, RefsPerCore: 200, Seed: seed, Compression: spec}
	cfg.Heterogeneous = spec.Kind == "dbrc"
	return cfg
}

func tinyGrid() []cmp.RunConfig {
	return []cmp.RunConfig{
		tiny("FFT", 1, compress.Spec{Kind: "none"}),
		tiny("FFT", 1, compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}),
		tiny("MP3D", 1, compress.Spec{Kind: "none"}),
		tiny("MP3D", 2, compress.Spec{Kind: "none"}),
		tiny("Water-nsq", 1, compress.Spec{Kind: "stride", LowOrderBytes: 2}),
	}
}

// counting installs a simulate-call counter on the runner.
func counting(r *Runner) *atomic.Int64 {
	var n atomic.Int64
	r.runFn = func(cfg cmp.RunConfig) (cmp.Result, error) {
		n.Add(1)
		return cmp.Run(cfg)
	}
	return &n
}

// TestParallelMatchesSerial is the engine's core determinism claim:
// the same batch through 1 worker and through many workers yields
// deeply equal results in the same (submission) order.
func TestParallelMatchesSerial(t *testing.T) {
	cfgs := tinyGrid()
	serial := (&Runner{Jobs: 1}).Run(cfgs)
	parallel := (&Runner{Jobs: 8}).Run(cfgs)
	if err := Err(serial); err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if serial[i].Index != i || parallel[i].Index != i {
			t.Fatalf("slot %d: indices %d/%d out of order", i, serial[i].Index, parallel[i].Index)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("slot %d (%s): serial and parallel results differ\n  serial:   %+v\n  parallel: %+v",
				i, cfgs[i].App, serial[i].Result, parallel[i].Result)
		}
	}
}

// TestErrorsAreCollected checks that a failing configuration occupies
// its own slot without aborting the rest of the batch, and that Err
// reports every failure.
func TestErrorsAreCollected(t *testing.T) {
	cfgs := []cmp.RunConfig{
		tiny("FFT", 1, compress.Spec{Kind: "none"}),
		{App: "FFT", RefsPerCore: 200, Seed: 1, Compression: compress.Spec{Kind: "none"}, Wiring: "bogus"},
		tiny("MP3D", 1, compress.Spec{Kind: "none"}),
		{App: "no-such-app", RefsPerCore: 200, Seed: 1},
	}
	jrs := (&Runner{Jobs: 4}).Run(cfgs)
	for _, i := range []int{0, 2} {
		if jrs[i].Err != nil {
			t.Errorf("job %d failed unexpectedly: %v", i, jrs[i].Err)
		}
		if jrs[i].Result.ExecCycles == 0 {
			t.Errorf("job %d made no progress", i)
		}
	}
	for _, i := range []int{1, 3} {
		if jrs[i].Err == nil {
			t.Errorf("job %d should have failed", i)
		}
	}
	err := Err(jrs)
	if err == nil {
		t.Fatal("Err should report the failures")
	}
	for _, want := range []string{"bogus", "no-such-app"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("combined error missing %q: %v", want, err)
		}
	}
}

// TestCacheSkipsDuplicates asserts simulate-call counts: duplicates
// within a batch simulate once, and a warm-cache rerun simulates
// nothing.
func TestCacheSkipsDuplicates(t *testing.T) {
	a := tiny("FFT", 1, compress.Spec{Kind: "none"})
	b := tiny("MP3D", 1, compress.Spec{Kind: "none"})
	aAlias := a
	aAlias.Heterogeneous = false
	aAlias.Wiring = "baseline" // equivalent spelling, same cache key
	cfgs := []cmp.RunConfig{a, b, a, aAlias, b}

	r := &Runner{Jobs: 4, Cache: NewMemCache()}
	calls := counting(r)
	first := r.Run(cfgs)
	if err := Err(first); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("first run simulated %d configs, want 2 (a and b once each)", got)
	}
	for i, primary := range map[int]int{2: 0, 3: 0, 4: 1} {
		if !first[i].Cached {
			t.Errorf("duplicate slot %d not marked cached", i)
		}
		if !reflect.DeepEqual(first[i].Result, first[primary].Result) {
			t.Errorf("duplicate slot %d differs from its primary", i)
		}
	}

	second := r.Run(cfgs)
	if got := calls.Load(); got != 2 {
		t.Errorf("warm rerun simulated %d more configs, want 0", got-2)
	}
	for i := range second {
		if !second[i].Cached {
			t.Errorf("warm slot %d not served from cache", i)
		}
		if !reflect.DeepEqual(second[i].Result, first[i].Result) {
			t.Errorf("warm slot %d differs from fresh result", i)
		}
	}
}

// TestDiskCacheRoundTrip checks that a hit from a fresh process
// (simulated by a new Cache over the same directory) returns a result
// byte-identical to the fresh run.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := tiny("FFT", 1, compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2})

	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := &Runner{Jobs: 1, Cache: c1}
	fresh := r1.Run([]cmp.RunConfig{cfg})
	if err := Err(fresh); err != nil {
		t.Fatal(err)
	}

	c2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := &Runner{Jobs: 1, Cache: c2}
	calls := counting(r2)
	warm := r2.Run([]cmp.RunConfig{cfg})
	if err := Err(warm); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Errorf("disk-warm run simulated %d configs, want 0", calls.Load())
	}
	if !warm[0].Cached {
		t.Error("disk-warm result not marked cached")
	}
	freshJSON, err := json.Marshal(fresh[0].Result)
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := json.Marshal(warm[0].Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(freshJSON) != string(warmJSON) {
		t.Errorf("disk round-trip not byte-identical:\n  fresh: %s\n  warm:  %s", freshJSON, warmJSON)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", st.DiskHits)
	}
}

// TestDiskCacheDiscardsCorruptEntries: damaged or stale entries are
// re-simulated, never fatal, and the bad file is removed.
func TestDiskCacheDiscardsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	cfg := tiny("MP3D", 1, compress.Spec{Kind: "none"})
	key, err := Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".json")

	corruptions := map[string][]byte{
		"garbage":       []byte("{not json"),
		"truncated":     []byte(`{"Version":"` + cmp.SimVersion + `","Key":"` + key + `","Result":{"ExecCy`),
		"stale-version": mustEntryJSON(t, "tilesim-sim-v0", key),
		"wrong-key":     mustEntryJSON(t, cmp.SimVersion, "0000deadbeef"),
	}
	names := []string{"garbage", "truncated", "stale-version", "wrong-key"}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, corruptions[name], 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := NewDiskCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			r := &Runner{Jobs: 1, Cache: c}
			calls := counting(r)
			jrs := r.Run([]cmp.RunConfig{cfg})
			if err := Err(jrs); err != nil {
				t.Fatalf("corrupt entry was fatal: %v", err)
			}
			if calls.Load() != 1 {
				t.Errorf("simulated %d times, want 1 (corrupt entry must miss)", calls.Load())
			}
			// The re-simulated result was re-persisted as a valid entry.
			c2, err := NewDiskCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c2.Get(key); !ok {
				t.Error("cache did not self-heal after corrupt entry")
			}
		})
	}
}

func mustEntryJSON(t *testing.T, version, key string) []byte {
	t.Helper()
	data, err := json.Marshal(entry{Version: version, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestKeyFieldSensitivity: any single RunConfig/Scale field change
// must change the cache key.
func TestKeyFieldSensitivity(t *testing.T) {
	base := cmp.RunConfig{
		App: "FFT", RefsPerCore: 1000, WarmupRefs: 400, Seed: 1,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	}
	baseKey, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name string
		mut  func(*cmp.RunConfig)
	}{
		{"App", func(c *cmp.RunConfig) { c.App = "MP3D" }},
		{"RefsPerCore", func(c *cmp.RunConfig) { c.RefsPerCore = 1001 }},
		{"WarmupRefs", func(c *cmp.RunConfig) { c.WarmupRefs = 401 }},
		{"Seed", func(c *cmp.RunConfig) { c.Seed = 2 }},
		{"Compression.Kind", func(c *cmp.RunConfig) { c.Compression.Kind = "stride" }},
		{"Compression.Entries", func(c *cmp.RunConfig) { c.Compression.Entries = 8 }},
		{"Compression.LowOrderBytes", func(c *cmp.RunConfig) { c.Compression.LowOrderBytes = 1 }},
		{"Wiring", func(c *cmp.RunConfig) { c.Wiring = "vlbpw" }},
		{"RouterLatency", func(c *cmp.RunConfig) { c.RouterLatency = 4 }},
		{"LinkCyclesScale", func(c *cmp.RunConfig) { c.LinkCyclesScale = 2.0 }},
		{"Faults.BER", func(c *cmp.RunConfig) { c.Faults.BER = 1e-6 }},
		{"Faults.RetryLimit", func(c *cmp.RunConfig) { c.Faults.BER = 1e-6; c.Faults.RetryLimit = 3 }},
	}
	seen := map[string]string{baseKey: "base"}
	for _, m := range mutations {
		cfg := base
		m.mut(&cfg)
		k, err := Key(cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collides with %s", m.name, prev)
		}
		seen[k] = m.name
	}

	// Equivalent spellings share a key.
	alias := base
	alias.Heterogeneous = false
	alias.Wiring = "vlb"
	if k, _ := Key(alias); k != baseKey {
		t.Error("Heterogeneous=true and Wiring=vlb should share a key")
	}

	// Trace-replay configs are not addressable.
	gen, err := workload.NewNamedApp("FFT", 16, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	replay := base
	replay.Generator = gen
	if _, err := Key(replay); err == nil {
		t.Error("config with custom Generator must not be cacheable")
	}
}

// TestProgressReporting: done is monotone, ends at total, and counts
// cached duplicates.
func TestProgressReporting(t *testing.T) {
	cfgs := tinyGrid()
	cfgs = append(cfgs, cfgs[0]) // one duplicate
	var calls []int
	last := 0
	r := &Runner{Jobs: 4, Progress: func(done, total int) {
		if total != len(cfgs) {
			t.Errorf("total = %d, want %d", total, len(cfgs))
		}
		if done <= last {
			t.Errorf("progress not monotone: %d after %d", done, last)
		}
		last = done
		calls = append(calls, done)
	}}
	if err := Err(r.Run(cfgs)); err != nil {
		t.Fatal(err)
	}
	if last != len(cfgs) {
		t.Errorf("final progress %d, want %d", last, len(cfgs))
	}
}

// TestOnResultOrderAndCoverage: the harvest callback fires once per
// submitted job in submission order — cached and duplicate slots
// included — and every successful result carries its metrics snapshot.
func TestOnResultOrderAndCoverage(t *testing.T) {
	cfgs := tinyGrid()
	cfgs = append(cfgs, cfgs[1]) // duplicate -> Cached slot
	var seen []int
	r := &Runner{Jobs: 4, Cache: NewMemCache(), OnResult: func(jr JobResult) {
		seen = append(seen, jr.Index)
		if jr.Err == nil && len(jr.Result.Metrics) == 0 {
			t.Errorf("job %d: result has no metrics snapshot", jr.Index)
		}
	}}
	out := r.Run(cfgs)
	if err := Err(out); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(cfgs) {
		t.Fatalf("OnResult fired %d times, want %d", len(seen), len(cfgs))
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("OnResult order %v not submission order", seen)
		}
	}
	if !out[len(out)-1].Cached {
		t.Fatal("duplicate slot not marked Cached")
	}
}

// TestMetricsSurviveDiskCache: the snapshot attached to a Result must
// round-trip through the JSON disk cache unchanged, so sidecar files
// generated from warm-cache runs match cold runs.
func TestMetricsSurviveDiskCache(t *testing.T) {
	dir := t.TempDir()
	cfg := tiny("FFT", 3, compress.Spec{Kind: "none"})

	cache1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldJobs := (&Runner{Jobs: 1, Cache: cache1}).Run([]cmp.RunConfig{cfg})
	if err := Err(coldJobs); err != nil {
		t.Fatal(err)
	}
	cache2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmJobs := (&Runner{Jobs: 1, Cache: cache2}).Run([]cmp.RunConfig{cfg})
	if err := Err(warmJobs); err != nil {
		t.Fatal(err)
	}
	if !warmJobs[0].Cached {
		t.Fatal("second run did not hit the disk cache")
	}
	cold, warm := coldJobs[0].Result, warmJobs[0].Result
	if len(warm.Metrics) == 0 {
		t.Fatal("cached result lost its metrics snapshot")
	}
	if !reflect.DeepEqual(cold.Metrics, warm.Metrics) {
		t.Fatal("metrics snapshot changed across the disk-cache round trip")
	}
}
