// Package analysis implements tilesimvet, the simulator-specific static
// checks that keep tilesim's cycle-level results bit-for-bit
// reproducible. Run applies both rules to one package at a time; each
// finding is labelled with its rule's name:
//
//   - determinism: in simulator packages, no range over a map, no
//     unstable sort.Slice or slices.SortFunc unless the comparator is
//     annotated as a total order, and no write to a package-level
//     variable; outside cmd/ and test files, no wall-clock time and no
//     global math/rand or math/rand/v2 draw (see determinism.go).
//   - exhaustive: a switch over an enum-like named type must cover
//     every declared constant or carry a default clause, so adding an
//     enum value cannot silently fall through a protocol dispatch.
//
// The driver is stdlib-only: packages are resolved and compiled by the
// go tool (go list -export), parsed with go/parser, and type-checked
// with go/types against the toolchain's export data.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// TotalOrderAnnotation, the one annotation tilesimvet recognizes, marks
// a sort.Slice or slices.SortFunc call whose comparator is a total
// order (no two distinct elements compare equal), so the unstable sort
// cannot introduce tie-breaking nondeterminism. The annotation should
// be accompanied by a comment proving totality.
const TotalOrderAnnotation = "tilesim:totalorder"

// Diagnostic is one finding.
type Diagnostic struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the diagnostic in the file:line:col style of go vet.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// pass bundles what one analyzer run over one package needs.
type pass struct {
	pkg  *Package
	fset *token.FileSet
	// totalorder maps file -> set of lines carrying //tilesim:totalorder.
	totalorder map[*ast.File]map[int]bool

	report func(Diagnostic)
}

func (p *pass) reportf(analyzer string, pos token.Pos, format string, args ...any) {
	position := p.fset.Position(pos)
	p.report(Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// totalOrderAt reports whether a //tilesim:totalorder annotation covers
// pos: on the same line (trailing comment) or the line immediately
// above the statement.
func (p *pass) totalOrderAt(f *ast.File, pos token.Pos) bool {
	set := p.totalorder[f]
	line := p.fset.Position(pos).Line
	return set[line] || set[line-1]
}

// inInternal reports whether the package is part of the simulator core
// (under tilesim's internal/ tree), where the strictest rules apply.
func (p *pass) inInternal() bool {
	return strings.Contains(p.pkg.Path, "/internal/")
}

// inCmd reports whether the package is a command-line entry point,
// where wall-clock time and ad-hoc randomness are acceptable.
func (p *pass) inCmd() bool {
	return strings.Contains(p.pkg.Path, "/cmd/")
}

// rules run once per loaded package, in the order listed. Each reports
// under its rule's name.
var rules = []func(*pass){checkDeterminism, checkExhaustive}

// Run loads the packages matched by patterns from dir and applies every
// analyzer, returning the findings sorted by position.
func Run(dir string, patterns []string) ([]Diagnostic, error) {
	pkgs, fset, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		p := &pass{
			pkg:        pkg,
			fset:       fset,
			totalorder: collectTotalOrder(fset, pkg),
			report:     report,
		}
		for _, check := range rules {
			check(p)
		}
	}

	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// isTotalOrder reports whether the comment IS the //tilesim:totalorder
// annotation: its text (optionally space-separated from the // marker)
// starts with it, followed by nothing or by a space. Prose that merely
// mentions the annotation, and indented doc-comment examples (whose
// trimmed text starts with a second //), do not count, so documenting
// the annotation never accidentally applies it.
func isTotalOrder(c *ast.Comment) bool {
	text, ok := strings.CutPrefix(c.Text, "//")
	if !ok {
		return false
	}
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), TotalOrderAnnotation)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}

// collectTotalOrder indexes the lines of each file that carry the
// //tilesim:totalorder annotation.
func collectTotalOrder(fset *token.FileSet, pkg *Package) map[*ast.File]map[int]bool {
	out := make(map[*ast.File]map[int]bool)
	for _, f := range pkg.Files {
		lines := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if isTotalOrder(c) {
					lines[fset.Position(c.Pos()).Line] = true
				}
			}
		}
		out[f] = lines
	}
	return out
}
