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
