// Package analysis implements tilesimvet, the simulator-specific static
// checks that keep tilesim's cycle-level results bit-for-bit
// reproducible and its failure modes diagnosable. Run applies all 4
// rules to one package at a time; each finding is labelled with its
// rule's name:
//
//   - determinism: in simulator packages, no map iteration unless
//     annotated as order-safe (and no float accumulation even then), no
//     unstable sort.Slice or slices.SortFunc unless the comparator is
//     annotated as a total order, and no write to a package-level
//     variable; outside cmd/ and test files, no wall-clock time and no
//     global math/rand or math/rand/v2 draw (see determinism.go).
//   - units: additive arithmetic, compound assignment and comparisons
//     must not mix values of distinct physical units (cycles, joules,
//     flits, seconds). Unit types are declared with a //tilesim:unit
//     annotation on their type declaration.
//   - panics: every panic in internal/ packages must carry a constant
//     "<pkg>: ..."-prefixed message so a crash names its subsystem.
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

// Annotations recognized in source comments.
const (
	// OrderedAnnotation marks a range-over-map statement whose
	// iteration order cannot affect simulation results (the body sorts
	// the keys afterwards, or is provably order-independent).
	OrderedAnnotation = "tilesim:ordered"
	// UnitAnnotation declares a named type as carrying a physical unit:
	//
	//	//tilesim:unit cycles
	//	type Time uint64
	UnitAnnotation = "tilesim:unit"
	// TotalOrderAnnotation marks a sort.Slice or slices.SortFunc call
	// whose comparator is a total order (no two distinct elements
	// compare equal), so the unstable sort cannot introduce
	// tie-breaking nondeterminism. The annotation should be accompanied
	// by a comment proving totality.
	TotalOrderAnnotation = "tilesim:totalorder"
)

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
	pkg   *Package
	fset  *token.FileSet
	units map[string]string // "pkgpath.TypeName" -> unit name
	// ordered maps file -> set of lines carrying //tilesim:ordered;
	// totalorder does the same for //tilesim:totalorder.
	ordered    map[*ast.File]map[int]bool
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

// annotatedAt reports whether an annotation line-set covers the given
// position: on the same line (trailing comment) or the line immediately
// above the statement.
func (p *pass) annotatedAt(lines map[*ast.File]map[int]bool, f *ast.File, pos token.Pos) bool {
	set := lines[f]
	if set == nil {
		return false
	}
	line := p.fset.Position(pos).Line
	return set[line] || set[line-1]
}

// orderedAt reports whether a //tilesim:ordered annotation covers pos.
func (p *pass) orderedAt(f *ast.File, pos token.Pos) bool {
	return p.annotatedAt(p.ordered, f, pos)
}

// totalOrderAt reports whether a //tilesim:totalorder annotation covers pos.
func (p *pass) totalOrderAt(f *ast.File, pos token.Pos) bool {
	return p.annotatedAt(p.totalorder, f, pos)
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
var rules = []func(*pass){
	checkDeterminism, checkUnits, checkPanics, checkExhaustive,
}

// Run loads the packages matched by patterns from dir and applies every
// analyzer, returning the findings sorted by position.
func Run(dir string, patterns []string) ([]Diagnostic, error) {
	pkgs, fset, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}

	// First pass over every loaded package: collect the unit-type
	// registry, so cross-package unit arithmetic resolves no matter
	// which package declares the type.
	units := make(map[string]string)
	for _, pkg := range pkgs {
		collectUnits(pkg, units)
	}

	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		p := &pass{
			pkg:        pkg,
			fset:       fset,
			units:      units,
			ordered:    collectAnnotations(fset, pkg, OrderedAnnotation),
			totalorder: collectAnnotations(fset, pkg, TotalOrderAnnotation),
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

// annotationRest returns the text following the given annotation when
// the comment IS that annotation — the comment text starts with it
// (optionally space-separated from the // marker). Prose that merely
// mentions an annotation, and indented doc-comment examples (whose
// trimmed text starts with a second //), do not count, so documenting
// an annotation never accidentally applies it.
func annotationRest(c *ast.Comment, annotation string) (string, bool) {
	text, ok := strings.CutPrefix(c.Text, "//")
	if !ok {
		return "", false
	}
	text = strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(text, annotation)
	if !ok {
		return "", false
	}
	// Word boundary: "//tilesim:unit cycles" is the unit annotation
	// with its name, "//tilesim:unitless" is not an annotation at all.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// collectAnnotations indexes the lines of each file that carry the
// given //tilesim:* annotation.
func collectAnnotations(fset *token.FileSet, pkg *Package, annotation string) map[*ast.File]map[int]bool {
	out := make(map[*ast.File]map[int]bool)
	for _, f := range pkg.Files {
		lines := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok := annotationRest(c, annotation); ok {
					lines[fset.Position(c.Pos()).Line] = true
				}
			}
		}
		out[f] = lines
	}
	return out
}

// collectUnits records every //tilesim:unit-annotated type declaration
// of the package into the registry, keyed "pkgpath.TypeName".
func collectUnits(pkg *Package, units map[string]string) {
	record := func(doc *ast.CommentGroup, name string) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			if unit, ok := annotationRest(c, UnitAnnotation); ok {
				if unit == "" {
					unit = name
				}
				units[pkg.Path+"."+name] = unit
			}
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				// The annotation may sit on the TypeSpec (grouped
				// declarations) or on the GenDecl (single type).
				record(ts.Doc, ts.Name.Name)
				if len(gd.Specs) == 1 {
					record(gd.Doc, ts.Name.Name)
				}
			}
		}
	}
}
