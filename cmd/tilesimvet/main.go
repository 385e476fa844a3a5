// Command tilesimvet runs tilesim's simulator-specific static analyses
// over the module, one package at a time. Every run applies all 4
// rules, and each finding names its rule: determinism (no map-order
// dependence or float accumulation in map order, a stable sort or a
// proven total order, no write to a package-level variable, and no
// wall-clock time or global randomness), units (no mixed-unit
// arithmetic, compound assignment or comparison), panics (prefixed
// constant messages) and exhaustive (enum switches cover every
// constant). The internal/analysis package doc has the full catalog.
//
// Usage:
//
//	go run ./cmd/tilesimvet ./...
//	go run ./cmd/tilesimvet ./internal/mesh
//
// It takes no flags. The exit status is 0 when the analyzed packages
// are clean, 1 when there are findings, and 2 on a driver error
// (unparsable package, build failure, ...). See DESIGN.md §8 for the
// rules and their annotations.
package main

import (
	"flag"
	"fmt"
	"os"

	"tilesim/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tilesimvet [packages] (default ./...)\n")
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := analysis.Run(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tilesimvet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
