package main

import (
	"bytes"
	"regexp"
	"testing"
)

// fixtures is the analyzer's fixture corpus, relative to this package.
const fixtures = "../../internal/analysis/testdata/src/"

// TestExitStatus holds tilesimvet to its documented exit statuses: 0
// and no output on clean packages, 1 with file:line:col findings, and 2
// when the run itself fails.
func TestExitStatus(t *testing.T) {
	finding := regexp.MustCompile(`(?m)^\S+/badmaprange\.go:\d+:\d+: determinism: `)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"clean", []string{fixtures + "clean"}, 0},
		{"findings", []string{fixtures + "badmaprange"}, 1},
		{"unknown flag", []string{"-json", fixtures + "clean"}, 2},
		{"pattern does not load", []string{fixtures + "nosuchfixture"}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, &stdout, &stderr)
			}
			switch code {
			case 0:
				if stdout.Len()+stderr.Len() != 0 {
					t.Errorf("clean run printed output:\nstdout:\n%s\nstderr:\n%s", &stdout, &stderr)
				}
			case 1:
				if !finding.Match(stdout.Bytes()) {
					t.Errorf("no file:line:col: determinism: finding on stdout:\n%s", &stdout)
				}
			default:
				if stderr.Len() == 0 {
					t.Error("failed run printed nothing on stderr")
				}
			}
		})
	}
}
