package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFiles(t *testing.T) {
	mk := func(runS []float64, digest string) []workloadRun {
		wr := workloadRun{Name: "mp3d-vlb", Seed: 1, Digest: digest}
		for _, s := range runS {
			wr.Reps = append(wr.Reps, rep{Digest: digest, Refs: 1000, RunS: s, WallS: s + 0.01, SetupS: 0.01, PeakRSSMB: 8})
		}
		return []workloadRun{wr}
	}
	dir := t.TempDir()
	write := func(name string, runs []workloadRun) string {
		path := filepath.Join(dir, name)
		if err := writeResults(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk([]float64{1.00, 1.01, 0.99}, "d"))
	slower := write("slower.json", mk([]float64{1.30, 1.31, 1.29}, "d"))
	same := write("same.json", mk([]float64{1.00, 1.00, 1.01}, "d"))
	changed := write("changed.json", mk([]float64{1.00, 1.00, 1.01}, "e"))

	cases := []struct {
		head     string
		wantCode int
		want     string
	}{
		{same, 0, "unchanged"},
		{slower, 1, "worse"},
		{changed, 1, "RESULTS DIFFER"},
	}
	for _, c := range cases {
		var out strings.Builder
		code, err := run([]string{"-compare", base, c.head}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if code != c.wantCode || !strings.Contains(out.String(), c.want) {
			t.Errorf("compare with %s: exit %d, want %d with %q in\n%s", filepath.Base(c.head), code, c.wantCode, c.want, out.String())
		}
	}
}
