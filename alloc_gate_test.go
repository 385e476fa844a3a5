package tilesim

// The allocation gate pins the simulator's steady-state allocation rate
// and volume so hot-path regressions fail CI instead of silently
// eroding throughput. ALLOC_BUDGET.json holds the ceilings on
// allocations and bytes per run; TestAllocGate and TestScaleAllocGate
// enforce them locally and the alloc-gate CI job enforces them against
// the benchmarks' -benchmem output. After a deliberate allocation
// change, re-measure with
//
//	go test -run '^$' -bench 'AllocGate$' -benchtime 5x -benchmem .
//
// and update the measured_* fields and, if warranted, the ceilings.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
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
	return b
}

// measureRun runs fn once to warm up and once more on one P, and
// returns the second run's heap allocations and bytes: the counts
// testing.AllocsPerRun and -benchmem report.
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
// the ordinary test run. Skipped under -race and -short for the same
// reasons as TestAllocGate, and because a 1024-tile simulation takes
// tens of seconds.
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
