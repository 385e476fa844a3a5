// Command tilesimvet runs tilesim's simulator-specific static analyses
// over the module, one package at a time. Every run applies both
// rules, and each finding names its rule: determinism (no map range, a
// stable sort or a proven total order, no write to a package-level
// variable, and no wall-clock time or global randomness) and exhaustive
// (enum switches cover every constant). The internal/analysis package
// doc has the full catalog.
//
// Usage:
//
//	go run ./cmd/tilesimvet ./...
//	go run ./cmd/tilesimvet ./internal/mesh
//
// It takes no flags. The exit status is 0 when the analyzed packages
// are clean, 1 when there are findings, and 2 when the run itself
// fails (unknown flag, unparsable package, build failure, ...). See
// DESIGN.md §8 for the rules and their annotation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"tilesim/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run analyzes the packages named by args from the working directory,
// printing findings to stdout and its own errors to stderr, and returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tilesimvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tilesimvet [packages] (default ./...)\n")
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := analysis.Run(".", patterns)
	if err != nil {
		fmt.Fprintf(stderr, "tilesimvet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
