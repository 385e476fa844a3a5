package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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
		{"badrand", "determinism", 5},
		{"badpanic", "panics", 3},
		{"badunits", "units", 7},
		{"badswitch", "exhaustive", 1},
		{"badsort", "determinism", 1},
		{"badfloat", "determinism", 3},
		{"badsharedstate", "sharedstate", 6},
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

// TestFixtureFindingsAnchored pins every bad* fixture's findings to the
// lines marked "// want:" in its sources, by file and line: each marker
// carries a finding and each finding sits on a marker, so the analyzers
// cannot drift to flagging the wrong statement, or the same line of
// another file in the fixture, while keeping the right counts.
func TestFixtureFindingsAnchored(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("testdata", "src", "bad*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no testdata/src/bad* fixtures")
	}
	for _, dir := range dirs {
		fixture := filepath.Base(dir)
		t.Run(fixture, func(t *testing.T) {
			want := wantMarkers(t, dir)
			var got []string
			for _, d := range runFixture(t, fixture) {
				got = append(got, filepath.Base(d.File)+":"+strconv.Itoa(d.Line))
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("findings are not on the // want: markers:\n--- got ---\n%s\n--- want ---\n%s",
					strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// wantMarkers returns the sorted "file.go:line" positions of the
// "// want:" comments in the Go sources of the fixture directory dir.
func wantMarkers(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var marks []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, "// want:") {
				marks = append(marks, filepath.Base(f)+":"+strconv.Itoa(i+1))
			}
		}
	}
	if len(marks) == 0 {
		t.Fatalf("%s has no // want: marker", dir)
	}
	sort.Strings(marks)
	return marks
}

// TestTaintFixture checks the fixture that exercises both halves of the
// determinism rule: the per-callsite check owns the two direct
// references (the stored time.Now, the global rand.Float64 call) while
// the transitive pass owns the three functions that reach them, each
// with a readable call chain.
func TestTaintFixture(t *testing.T) {
	diags := runFixture(t, "badtaint")
	chains := 0
	for _, d := range diags {
		if d.Analyzer != "determinism" {
			t.Errorf("finding from analyzer %q, want determinism: %s", d.Analyzer, d)
		}
		if strings.Contains(d.Message, " -> ") {
			chains++
		}
	}
	if chains != 3 || len(diags) != 5 {
		t.Fatalf("badtaint: got %d findings, %d with a call chain; want 5, 3 with a call chain:\n%s",
			len(diags), chains, render(diags))
	}
}

// TestGoldenFixtures compares the full rendered diagnostics of every
// testdata/src/bad* fixture with its want.txt, one
// "file:line:col: analyzer: message" line per finding in report order,
// so a finding that moves line or file, changes wording or changes
// analyzer fails. A bad* fixture without a want.txt fails too.
func TestGoldenFixtures(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("testdata", "src", "bad*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no testdata/src/bad* fixtures")
	}
	for _, dir := range dirs {
		fixture := filepath.Base(dir)
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
			want, err := os.ReadFile(filepath.Join(dir, "want.txt"))
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
		{"badsort", "determinism", 1},
		// panic(v) has no string literal to prefix, so only the two
		// literal-message findings are mechanically fixable.
		{"badpanic", "panics", 2},
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
	if diags := runFixture(t, "clean"); len(diags) != 0 {
		t.Fatalf("clean fixture produced findings:\n%s", render(diags))
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
