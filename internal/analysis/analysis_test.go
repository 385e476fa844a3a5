package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runFixture loads and analyzes one corpus package under testdata/src.
// Fixture directories are invisible to ./... wildcards (the go tool
// skips testdata), but resolve fine as explicit relative paths.
func runFixture(t *testing.T, name string) []Diagnostic {
	t.Helper()
	diags, err := Run(".", []string{"./testdata/src/" + name})
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	return diags
}

func TestFixtureFindings(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer string
		want     int
	}{
		{"badmaprange", "determinism", 1},
		{"badtime", "determinism", 2},
		{"badrand", "determinism", 1},
		{"badpanic", "panics", 3},
		{"badunits", "units", 7},
		{"badswitch", "exhaustive", 1},
		{"badobs", "obshooks", 1},
		{"badsort", "stablesort", 1},
		{"badfloat", "floatorder", 3},
		{"badcanon", "canoncover", 1},
		{"badmetricskeys", "metricskeys", 3},
		{"badseries", "metricskeys", 4},
		{"badhotalloc", "hotalloc", 11},
		{"badsharedstate", "sharedstate", 6},
		{"badpoollife", "poollife", 10},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			diags := runFixture(t, c.fixture)
			if len(diags) != c.want {
				t.Fatalf("%s: got %d findings, want %d:\n%s",
					c.fixture, len(diags), c.want, render(diags))
			}
			for _, d := range diags {
				if d.Analyzer != c.analyzer {
					t.Errorf("%s: finding from analyzer %q, want %q: %s",
						c.fixture, d.Analyzer, c.analyzer, d)
				}
				if d.File == "" || d.Line == 0 {
					t.Errorf("%s: finding without a position: %+v", c.fixture, d)
				}
				if !strings.Contains(d.File, c.fixture) {
					t.Errorf("%s: finding in unexpected file %s", c.fixture, d.File)
				}
			}
		})
	}
}

// TestFixtureFindingsAnchored pins each fixture's findings to the lines
// marked "want:" in its source, so the analyzers cannot drift to
// flagging the wrong statements while keeping the right counts.
func TestFixtureFindingsAnchored(t *testing.T) {
	cases := []struct {
		fixture string
		lines   []int
	}{
		{"badmaprange", []int{9}},
		{"badtime", []int{9, 14}},
		{"badrand", []int{10}},
		{"badpanic", []int{11, 14, 17}},
		{"badunits", []int{19, 24, 29, 34, 39, 45, 52}},
		{"badswitch", []int{18}},
		{"badobs", []int{18}},
		{"badsort", []int{18}},
		{"badfloat", []int{15, 23, 32}},
		{"badtaint", []int{16, 19, 24, 31, 35}},
		{"badcanon", []int{25}},
		{"badmetricskeys", []int{23, 30, 37}},
		{"badseries", []int{26, 33, 39, 45}},
		{"badhotalloc", []int{26, 28, 30, 31, 32, 37, 39, 41, 43, 54, 55}},
		{"badsharedstate", []int{34, 37, 38, 40, 44, 58}},
		{"badpoollife", []int{52, 61, 67, 73, 79, 86, 91, 101, 107, 112}},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			diags := runFixture(t, c.fixture)
			got := make(map[int]bool)
			for _, d := range diags {
				got[d.Line] = true
			}
			for _, line := range c.lines {
				if !got[line] {
					t.Errorf("%s: no finding on line %d:\n%s", c.fixture, line, render(diags))
				}
			}
		})
	}
}

// TestTaintFixture checks the one fixture that deliberately mixes
// analyzers: the per-callsite determinism rule owns the two direct
// references (the stored time.Now, the global rand.Float64 call) while
// the taint pass owns the three functions that reach them transitively,
// each with a readable call chain.
func TestTaintFixture(t *testing.T) {
	diags := runFixture(t, "badtaint")
	byAnalyzer := make(map[string]int)
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
		if d.Analyzer == "taint" && !strings.Contains(d.Message, " -> ") {
			t.Errorf("taint finding without a call chain: %s", d)
		}
	}
	if byAnalyzer["determinism"] != 2 || byAnalyzer["taint"] != 3 || len(diags) != 5 {
		t.Fatalf("badtaint: got %v (total %d), want determinism:2 taint:3:\n%s",
			byAnalyzer, len(diags), render(diags))
	}
}

// TestGoldenFixtures compares the full rendered diagnostics of each
// new-rule fixture against its checked-in want.txt, pinning message
// wording, positions, and ordering all at once.
func TestGoldenFixtures(t *testing.T) {
	for _, fixture := range []string{"badsort", "badfloat", "badtaint", "badcanon", "badmetricskeys", "badseries", "badhotalloc", "badsharedstate", "badpoollife"} {
		t.Run(fixture, func(t *testing.T) {
			diags := runFixture(t, fixture)
			var b strings.Builder
			for _, d := range diags {
				line := d.String()
				if i := strings.Index(line, "testdata/src/"); i >= 0 {
					line = line[i+len("testdata/src/"):]
				}
				b.WriteString(line + "\n")
			}
			want, err := os.ReadFile(filepath.Join("testdata", "src", fixture, "want.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("diagnostics drifted from want.txt:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestFixturesCarryFixes asserts the mechanically fixable findings
// actually carry SuggestedFix payloads with non-empty edits.
func TestFixturesCarryFixes(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer string
		fixes    int
	}{
		{"badsort", "stablesort", 1},
		// panic(v) has no string literal to prefix, so only the two
		// literal-message findings are mechanically fixable.
		{"badpanic", "panics", 2},
		{"badobs", "obshooks", 1},
		// The capacity-less append whose slice is created by []int{} in
		// the same body, ranging over an in-scope value, gets the
		// make-with-capacity rewrite; the other hotalloc findings need
		// structural changes no rewrite can guess.
		{"badhotalloc", "hotalloc", 1},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			got := 0
			for _, d := range runFixture(t, c.fixture) {
				if d.Analyzer != c.analyzer || d.Fix == nil {
					continue
				}
				if len(d.Fix.Edits) == 0 || d.Fix.Message == "" {
					t.Errorf("degenerate fix on %s: %+v", d, d.Fix)
				}
				got++
			}
			if got != c.fixes {
				t.Errorf("%s: got %d findings with fixes, want %d", c.fixture, got, c.fixes)
			}
		})
	}
}

func TestCleanFixture(t *testing.T) {
	for _, fixture := range []string{"clean", "cleanpool"} {
		if diags := runFixture(t, fixture); len(diags) != 0 {
			t.Fatalf("%s fixture produced findings:\n%s", fixture, render(diags))
		}
	}
}

// TestRepoIsClean is the gate the CI tilesimvet step enforces: the
// whole module must analyze without findings.
func TestRepoIsClean(t *testing.T) {
	diags, err := Run("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("Run(./...): %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("module has tilesimvet findings:\n%s", render(diags))
	}
}

func TestDiagnosticJSON(t *testing.T) {
	d := Diagnostic{
		File:     "internal/mesh/network.go",
		Line:     42,
		Col:      7,
		Analyzer: "determinism",
		Message:  "range over map",
	}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"file", "line", "col", "analyzer", "message"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON output missing %q: %s", key, raw)
		}
	}
	if _, ok := decoded["Pos"]; ok {
		t.Errorf("JSON output leaks the token.Position field: %s", raw)
	}
}

func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}
