// Command tilesimvet runs tilesim's simulator-specific static analyses
// over the module. Every run applies all 13 rules, and each finding
// names its rule: determinism (no map-order or wall-clock dependence,
// no global randomness), stablesort (sort.SliceStable or a proven total
// order), floatorder (no float accumulation in map order), units (no
// mixed-unit arithmetic, compound assignment or comparison), panics
// (prefixed constant messages), exhaustive (enum switches cover every
// constant), obshooks (tracer calls in loops are nil-guarded),
// metricskeys (constant-rooted metric names), taint (no transitive
// reach of wall-clock time or global randomness), canoncover
// (Canonical() covers every exported field), hotalloc (no per-event
// allocation reachable from //tilesim:hotpath roots), sharedstate (no
// unsynchronized shared state in goroutine-reachable code) and poollife
// (pooled-object lifetimes: no use after release, double release,
// retention or leak). The internal/analysis package doc has the full
// catalog.
//
// Usage:
//
//	go run ./cmd/tilesimvet ./...
//	go run ./cmd/tilesimvet -json ./internal/mesh
//	go run ./cmd/tilesimvet -fix ./...
//	go run ./cmd/tilesimvet -escapes ./...
//
// -json emits the diagnostics as a JSON array, each carrying its
// machine-applicable fix when one exists. -fix applies every suggested
// fix (atomically, gofmt-clean, idempotently) and then reports only
// the findings that remain unfixable. -escapes replaces the rules with
// a check of the compiler's escape analysis against the
// //tilesim:noescape and //tilesim:hotpath annotations.
//
// The exit status is 0 when the analyzed packages are clean (under
// -fix: when every finding was fixable), 1 when findings remain, and
// 2 on a driver error (unparsable package, build failure, conflicting
// fixes, ...). See DESIGN.md §8 and §12 for the //tilesim:ordered,
// //tilesim:unit and //tilesim:totalorder annotations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tilesim/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	fix := flag.Bool("fix", false, "apply suggested fixes, then report only unfixable findings")
	escapes := flag.Bool("escapes", false, "correlate compiler escape analysis (-gcflags=-m) with //tilesim:noescape and //tilesim:hotpath annotations instead of running the syntactic rules")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tilesimvet [-json] [-fix] [-escapes] <packages>\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	run := analysis.Run
	if *escapes {
		if *fix {
			fmt.Fprintln(os.Stderr, "tilesimvet: -escapes findings have no machine-applicable fixes; drop -fix")
			os.Exit(2)
		}
		run = analysis.RunEscapes
	}
	diags, err := run(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tilesimvet: %v\n", err)
		os.Exit(2)
	}

	if *fix {
		changed, err := analysis.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tilesimvet: %v\n", err)
			os.Exit(2)
		}
		for _, file := range changed {
			fmt.Fprintf(os.Stderr, "tilesimvet: fixed %s\n", file)
		}
		// Keep only the findings with no machine-applicable fix; the
		// fixed ones are resolved on disk now.
		remaining := diags[:0]
		for _, d := range diags {
			if d.Fix == nil {
				remaining = append(remaining, d)
			}
		}
		diags = remaining
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "tilesimvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
