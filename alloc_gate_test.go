package tilesim

// The allocation checks pin the simulator's allocations so a regression
// fails CI instead of silently eroding throughput. ALLOC_BUDGET.json
// holds every ceiling and the measurement beside it:
//
//   - TestAllocGate: allocations and bytes per run of the 16-tile
//     MP3D configuration;
//   - TestScaleAllocGate: allocations and bytes per tile of the
//     1024-tile torus cell;
//   - TestAllocSlope: allocations per simulated reference between two
//     run lengths, on every configuration of the byte-identity matrix
//     and the scheme and layout runs only cmd/figures reaches;
//   - TestResultEncodingAllocGate: bytes allocated by sweep.Digest and
//     a disk-cache Put of a 1024-tile result.
//
// The alloc-gate CI job runs these four tests. After a deliberate
// allocation change, re-measure the gates with
//
//	go test -run '^$' -bench 'AllocGate$' -benchtime 5x -benchmem .
//
// and the slope with `go test -run '^TestAllocSlope$' -v .`, then
// update the measured_* fields. A ceiling rises only with the measured
// result that justifies it.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/fault"
	"tilesim/internal/sweep"
	"tilesim/internal/workload"
)

// allocBudget mirrors ALLOC_BUDGET.json.
type allocBudget struct {
	Benchmark           string `json:"benchmark"`
	Config              string `json:"config"`
	AllocsPerOpCeiling  uint64 `json:"allocs_per_op_ceiling"`
	BytesPerOpCeiling   uint64 `json:"bytes_per_op_ceiling"`
	MeasuredAllocsPerOp uint64 `json:"measured_allocs_per_op"`
	MeasuredBytesPerOp  uint64 `json:"measured_bytes_per_op"`
	BaselineAllocsPerOp uint64 `json:"baseline_allocs_per_op"`
	// Scale-study gate (DESIGN.md §14.6): the 1024-tile cell budgets
	// allocations and bytes per tile, so the growing machine never
	// needs the 16-tile global ceilings raised on its behalf.
	ScaleAllocsPerTileCeiling  uint64 `json:"scale_allocs_per_tile_ceiling"`
	ScaleMeasuredAllocsPerTile uint64 `json:"scale_measured_allocs_per_tile"`
	ScaleBytesPerTileCeiling   uint64 `json:"scale_bytes_per_tile_ceiling"`
	ScaleMeasuredBytesPerTile  uint64 `json:"scale_measured_bytes_per_tile"`
	// Run-phase check: one ceiling on allocations per simulated
	// reference for every TestAllocSlope configuration, and the worst
	// configuration's measurement.
	SlopeAllocsPerRefCeiling  float64 `json:"slope_allocs_per_ref_ceiling"`
	SlopeMeasuredAllocsPerRef float64 `json:"slope_measured_allocs_per_ref"`
	SlopeMeasuredWorst        string  `json:"slope_measured_worst"`
	// Result-encoding check: bytes allocated by one digest or one
	// disk-cache Put of the 1024-tile bench result, each.
	EncodeBytesCeiling  uint64 `json:"encode_bytes_ceiling"`
	EncodeMeasuredBytes uint64 `json:"encode_measured_bytes"`
}

func readAllocBudget(t testing.TB) allocBudget {
	t.Helper()
	raw, err := os.ReadFile("ALLOC_BUDGET.json")
	if err != nil {
		t.Fatalf("alloc gate: %v", err)
	}
	var b allocBudget
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("alloc gate: parse ALLOC_BUDGET.json: %v", err)
	}
	if b.AllocsPerOpCeiling == 0 || b.BytesPerOpCeiling == 0 {
		t.Fatal("alloc gate: ALLOC_BUDGET.json lacks allocs_per_op_ceiling or bytes_per_op_ceiling")
	}
	if b.ScaleAllocsPerTileCeiling == 0 || b.ScaleBytesPerTileCeiling == 0 {
		t.Fatal("alloc gate: ALLOC_BUDGET.json lacks scale_allocs_per_tile_ceiling or scale_bytes_per_tile_ceiling")
	}
	if b.SlopeAllocsPerRefCeiling == 0 {
		t.Fatal("alloc gate: ALLOC_BUDGET.json lacks slope_allocs_per_ref_ceiling")
	}
	if b.EncodeBytesCeiling == 0 {
		t.Fatal("alloc gate: ALLOC_BUDGET.json lacks encode_bytes_ceiling")
	}
	return b
}

// measureRun runs fn once to warm up and once more on one P, and
// returns the second run's heap allocations and bytes, read from
// runtime.MemStats around it: the counts -benchmem reports.
func measureRun(fn func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// allocGateConfig is the densest-workload configuration, identical to
// BenchmarkSimulatorThroughput so the two series stay comparable.
func allocGateConfig() cmp.RunConfig {
	return cmp.RunConfig{
		App:           "MP3D",
		RefsPerCore:   2000,
		Seed:          1,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	}
}

func runAllocGateOnce(t testing.TB) {
	r, err := cmp.Run(allocGateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecCycles == 0 {
		t.Fatal("no progress")
	}
}

// BenchmarkAllocGate is the measurement the CI alloc-gate job compares
// against ALLOC_BUDGET.json. It is the throughput benchmark's workload
// with allocation reporting; the ceiling is also reported as a metric
// so a bench log is self-describing.
func BenchmarkAllocGate(b *testing.B) {
	budget := readAllocBudget(b)
	b.ReportAllocs()
	b.ReportMetric(float64(budget.AllocsPerOpCeiling), "alloc-ceiling/op")
	b.ReportMetric(float64(budget.BytesPerOpCeiling), "byte-ceiling/op")
	for i := 0; i < b.N; i++ {
		runAllocGateOnce(b)
	}
}

// scaleGateTiles is the tile count of the scale allocation gate — the
// scale study's largest cell.
const scaleGateTiles = 1024

// scaleGateConfig is the ALLOC_BUDGET.json scale_config: the scale
// study's 1024-tile torus cell at the study's floored run length.
func scaleGateConfig() cmp.RunConfig {
	return cmp.RunConfig{
		App:           "FFT",
		RefsPerCore:   500,
		WarmupRefs:    250,
		Seed:          1,
		Topology:      "torus",
		Tiles:         scaleGateTiles,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	}
}

func runScaleGateOnce(t testing.TB) {
	r, err := cmp.Run(scaleGateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecCycles == 0 {
		t.Fatal("no progress")
	}
}

// BenchmarkScaleAllocGate is the measurement the CI alloc-gate job
// compares against the per-tile ceilings
// (allocs/op <= tiles * scale_allocs_per_tile_ceiling, and B/op <=
// tiles * scale_bytes_per_tile_ceiling).
func BenchmarkScaleAllocGate(b *testing.B) {
	budget := readAllocBudget(b)
	b.ReportAllocs()
	b.ReportMetric(float64(scaleGateTiles*budget.ScaleAllocsPerTileCeiling), "alloc-ceiling/op")
	b.ReportMetric(float64(scaleGateTiles*budget.ScaleBytesPerTileCeiling), "byte-ceiling/op")
	for i := 0; i < b.N; i++ {
		runScaleGateOnce(b)
	}
}

// TestScaleAllocGate enforces the per-tile ceilings at 1024 tiles in
// the ordinary test run (about 7 s on a 2-vCPU host). Skipped under
// -race and -short for the same reasons as TestAllocGate.
func TestScaleAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	if testing.Short() {
		t.Skip("1024-tile allocation measurement")
	}
	budget := readAllocBudget(t)
	allocs, bytes := measureRun(func() { runScaleGateOnce(t) })
	t.Logf("scale alloc gate: %d allocs/op = %d allocs/tile, %d B/op = %d B/tile at %d tiles "+
		"(per-tile ceilings %d allocs and %d B, recorded %d and %d)",
		allocs, allocs/scaleGateTiles, bytes, bytes/scaleGateTiles, scaleGateTiles,
		budget.ScaleAllocsPerTileCeiling, budget.ScaleBytesPerTileCeiling,
		budget.ScaleMeasuredAllocsPerTile, budget.ScaleMeasuredBytesPerTile)
	if ceiling := scaleGateTiles * budget.ScaleAllocsPerTileCeiling; allocs > ceiling {
		t.Errorf("scale alloc gate: %d allocs/op exceeds %d tiles x %d allocs/tile = %d",
			allocs, scaleGateTiles, budget.ScaleAllocsPerTileCeiling, ceiling)
	}
	if ceiling := scaleGateTiles * budget.ScaleBytesPerTileCeiling; bytes > ceiling {
		t.Errorf("scale alloc gate: %d B/op exceeds %d tiles x %d B/tile = %d",
			bytes, scaleGateTiles, budget.ScaleBytesPerTileCeiling, ceiling)
	}
}

// TestAllocGate enforces the ceiling in the ordinary test run, so a
// plain `go test ./...` catches allocation regressions without the
// bench harness. Skipped under the race detector and in -short mode:
// race instrumentation allocates on its own behalf and would gate on
// noise.
func TestAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	if testing.Short() {
		t.Skip("full-run allocation measurement")
	}
	budget := readAllocBudget(t)
	allocs, bytes := measureRun(func() { runAllocGateOnce(t) })
	t.Logf("alloc gate: %d allocs/op and %d B/op (ceilings %d and %d, recorded %d and %d, pre-gate baseline %d allocs/op)",
		allocs, bytes, budget.AllocsPerOpCeiling, budget.BytesPerOpCeiling,
		budget.MeasuredAllocsPerOp, budget.MeasuredBytesPerOp, budget.BaselineAllocsPerOp)
	if allocs > budget.AllocsPerOpCeiling {
		t.Errorf("alloc gate: %d allocs/op exceeds the ALLOC_BUDGET.json ceiling of %d",
			allocs, budget.AllocsPerOpCeiling)
	}
	if bytes > budget.BytesPerOpCeiling {
		t.Errorf("alloc gate: %d B/op exceeds the ALLOC_BUDGET.json ceiling of %d",
			bytes, budget.BytesPerOpCeiling)
	}
}

// slopeCase is one configuration of the run-phase allocation check,
// run at short and then long references per core.
type slopeCase struct {
	name        string
	cfg         cmp.RunConfig
	short, long int
}

// slopeCases are the run-phase check's configurations: the 13
// applications at 16 tiles, the byte-identity script's twelve 64-tile
// runs, and FFT at 16 tiles under every scheme and layout tilesim has
// no flag for, and with the epoch-series sampler on. The 64-tile runs
// are half as long per core but twice as long in references: FFT's
// directory keeps growing for longer there (DESIGN.md §13).
func slopeCases() []slopeCase {
	const short16, long16 = 4000, 16000
	const short64, long64 = 2000, 8000
	dbrc := compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}
	base := cmp.RunConfig{Seed: 1, Compression: dbrc, Heterogeneous: true}
	var cases []slopeCase
	for _, app := range workload.AppNames() {
		cfg := base
		cfg.App = app
		cases = append(cases, slopeCase{app, cfg, short16, long16})
	}
	fft := base
	fft.App = "FFT"
	variants := []struct {
		name string
		set  func(*cmp.RunConfig)
	}{
		{"FFT-stride", func(c *cmp.RunConfig) { c.Compression = compress.Spec{Kind: "stride", LowOrderBytes: 2} }},
		{"FFT-perfect", func(c *cmp.RunConfig) { c.Compression = compress.Spec{Kind: "perfect", LowOrderBytes: 2} }},
		{"FFT-lpw-rp", func(c *cmp.RunConfig) {
			c.Compression = compress.Spec{Kind: "none"}
			c.Wiring, c.ReplyPartitioning = "lpw", true
		}},
		{"FFT-vlbpw-rp", func(c *cmp.RunConfig) { c.Wiring, c.ReplyPartitioning = "vlbpw", true }},
		{"FFT-series512", func(c *cmp.RunConfig) { c.SeriesInterval = 512 }},
	}
	for _, v := range variants {
		cfg := fft
		v.set(&cfg)
		cases = append(cases, slopeCase{v.name, cfg, short16, long16})
	}
	faults := []struct {
		name string
		f    fault.Config
	}{
		{"", fault.Config{}},
		{"-ber", fault.Config{BER: 1e-5, VLBERScale: 4}},
		{"-stall-outage", fault.Config{StallProb: 0.01, OutagePlane: "VL", OutageStart: 2000, OutageCycles: 3000}},
	}
	for _, topo := range cmp.TopologyNames {
		for _, f := range faults {
			cfg := fft
			cfg.Topology, cfg.Tiles, cfg.Faults = topo, 64, f.f
			cases = append(cases, slopeCase{topo + "64" + f.name, cfg, short64, long64})
		}
	}
	return cases
}

// allocSlope runs c at its two run lengths on one P and returns the
// extra heap allocations per extra simulated reference. Setup and
// end-of-run allocations appear in both runs and cancel, so what is
// left is what the run phase allocates as it goes.
func allocSlope(t *testing.T, c slopeCase) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(refs int) uint64 {
		cfg := c.cfg
		cfg.RefsPerCore = refs
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := cmp.Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if r.ExecCycles == 0 {
			t.Fatal("no progress")
		}
		return after.Mallocs - before.Mallocs
	}
	tiles := c.cfg.Tiles
	if tiles == 0 {
		tiles = 16
	}
	short, long := mallocs(c.short), mallocs(c.long)
	return (float64(long) - float64(short)) / float64((c.long-c.short)*tiles)
}

// TestAllocSlope is the run-phase allocation check: in every
// configuration, allocations must stop growing with run length once
// setup is done. A per-event allocation anywhere in the simulator (a
// formatted string per hop, a closure per handler, a queue per
// directory entry) adds to every reference and raises the slope past
// the one ceiling in ALLOC_BUDGET.json, whatever its syntax or the
// compiler's escape decision. Skipped under -race and -short, like
// TestAllocGate.
func TestAllocSlope(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	if testing.Short() {
		t.Skip("run-phase allocation measurement")
	}
	budget := readAllocBudget(t)
	worst, worstName := 0.0, ""
	for _, c := range slopeCases() {
		t.Run(c.name, func(t *testing.T) {
			slope := allocSlope(t, c)
			t.Logf("%.4f allocs/ref from %d to %d refs/core", slope, c.short, c.long)
			if slope > worst {
				worst, worstName = slope, c.name
			}
			if slope > budget.SlopeAllocsPerRefCeiling {
				t.Errorf("alloc slope: %.4f allocs per simulated reference exceeds the ALLOC_BUDGET.json ceiling of %g",
					slope, budget.SlopeAllocsPerRefCeiling)
			}
		})
	}
	t.Logf("alloc slope: worst %.4f allocs/ref on %s (ceiling %g, recorded %.4f on %s)",
		worst, worstName, budget.SlopeAllocsPerRefCeiling, budget.SlopeMeasuredAllocsPerRef, budget.SlopeMeasuredWorst)
}

// TestResultEncodingAllocGate requires the digest and the disk cache to
// stream a result's encoding instead of holding it: on the 1024-tile
// torus result bench/ digests (fft-torus1024: 18,507 metrics, 1.4 MB of
// JSON), sweep.Digest and a disk-cache Put must each allocate at most
// the ALLOC_BUDGET.json ceiling. Materializing the encoding, as
// json.Marshal does, allocates 7.6 MB. Skipped under -race, like
// TestAllocGate.
func TestResultEncodingAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	budget := readAllocBudget(t)
	res, err := cmp.Run(cmp.RunConfig{
		App: "FFT", RefsPerCore: 40, WarmupRefs: 10, Seed: 1, Topology: "torus", Tiles: 1024,
		Compression:   compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Heterogeneous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := sweep.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"sweep.Digest", func() { sweep.Digest(res) }},
		{"Cache.Put", func() { cache.Put("fft-torus1024", res) }},
	} {
		allocs, bytes := measureRun(c.fn)
		t.Logf("%s: %d allocs, %d B (ceiling %d B, recorded %d B)",
			c.name, allocs, bytes, budget.EncodeBytesCeiling, budget.EncodeMeasuredBytes)
		if bytes > budget.EncodeBytesCeiling {
			t.Errorf("%s allocated %d B, above the ALLOC_BUDGET.json ceiling of %d B: "+
				"the result's encoding is being held, not streamed", c.name, bytes, budget.EncodeBytesCeiling)
		}
	}
}
