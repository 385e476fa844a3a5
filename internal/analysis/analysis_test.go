package analysis

import (
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

// TestFixtureFindings checks each bad* fixture's finding count, that
// every finding comes from the one analyzer the fixture exercises, and
// that it is positioned inside the fixture.
func TestFixtureFindings(t *testing.T) {
	cases := []struct {
		fixture  string
		analyzer string
		want     int
	}{
		{"badmaprange", "determinism", 1},
		{"badtime", "determinism", 3},
		{"badrand", "determinism", 5},
		{"badpanic", "panics", 3},
		{"badunits", "units", 7},
		{"badswitch", "exhaustive", 1},
		{"badsort", "determinism", 2},
		{"badfloat", "determinism", 3},
		{"badglobal", "determinism", 6},
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

func TestCleanFixture(t *testing.T) {
	if diags := runFixture(t, "clean"); len(diags) != 0 {
		t.Fatalf("clean fixture produced findings:\n%s", render(diags))
	}
}

// TestRepoIsClean holds the whole module to zero findings; it is the
// gate, run with every go test ./....
func TestRepoIsClean(t *testing.T) {
	diags, err := Run("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("Run(./...): %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("module has tilesimvet findings:\n%s", render(diags))
	}
}

func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}
