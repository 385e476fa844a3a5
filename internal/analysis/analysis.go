// Package analysis implements tilesimvet, the simulator-specific static
// checks that keep tilesim's cycle-level results bit-for-bit
// reproducible and its failure modes diagnosable. Run applies all 5
// rules; each finding is labelled with its rule's name:
//
//   - determinism: in simulator packages, no map iteration unless
//     annotated as order-safe (and no float accumulation even then), no
//     unstable sort.Slice unless the comparator is annotated as a total
//     order; outside cmd/ and test files, no wall-clock time and no
//     global math/rand or math/rand/v2 draw, whether referenced
//     directly or reached transitively through helpers and stored
//     function values (see determinism.go).
//   - units: additive arithmetic, compound assignment and comparisons
//     must not mix values of distinct physical units (cycles, joules,
//     flits, seconds). Unit types are declared with a //tilesim:unit
//     annotation on their type declaration.
//   - panics: every panic in internal/ packages must carry a constant
//     "<pkg>: ..."-prefixed message so a crash names its subsystem.
//   - exhaustive: a switch over an enum-like named type must cover
//     every declared constant or carry a default clause, so adding an
//     enum value cannot silently fall through a protocol dispatch.
//   - sharedstate: code reachable from a go statement or a
//     sweep.Runner callback must not touch unsynchronized shared
//     mutable state unless a reasoned //tilesim:sharedok waives it
//     (see sharedstate.go).
//
// Two findings carry a machine-applicable SuggestedFix: a missing
// panic prefix is inserted, and sort.Slice is rewritten to
// sort.SliceStable. ApplyFixes applies them atomically and gofmt-clean,
// and cmd/tilesimvet surfaces them behind -fix.
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
	// TotalOrderAnnotation marks a sort.Slice call whose comparator is
	// a total order (no two distinct elements compare equal), so the
	// unstable sort cannot introduce tie-breaking nondeterminism. The
	// annotation should be accompanied by a comment proving totality.
	TotalOrderAnnotation = "tilesim:totalorder"
	// SharedOKAnnotation waives one sharedstate finding:
	//
	//	//tilesim:sharedok disjoint per-job slots, joined by wg.Wait
	//
	// The reason is mandatory, and a waiver that no longer suppresses a
	// finding is itself reported as stale, so waivers cannot rot.
	SharedOKAnnotation = "tilesim:sharedok"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
	// Fix, when non-nil, is a machine-applicable resolution of the
	// finding (see ApplyFixes and cmd/tilesimvet -fix).
	Fix *SuggestedFix `json:"fix,omitempty"`
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
	// sharedok maps file -> line -> waiver reason (empty string when
	// the annotation carries no reason, which is itself a finding).
	sharedok map[*ast.File]map[int]string

	report func(Diagnostic)
}

func (p *pass) reportf(analyzer string, pos token.Pos, format string, args ...any) {
	p.reportFix(analyzer, pos, nil, format, args...)
}

// reportFix is reportf with an attached suggested fix.
func (p *pass) reportFix(analyzer string, pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	position := p.fset.Position(pos)
	p.report(Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
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

// waiverAt looks a reason-bearing waiver up at pos's line or the line
// above, returning the reason and the annotation's own line.
func waiverAt(p *pass, waivers map[*ast.File]map[int]string, f *ast.File, pos token.Pos) (reason string, line int, ok bool) {
	set := waivers[f]
	if set == nil {
		return "", 0, false
	}
	posLine := p.fset.Position(pos).Line
	if r, found := set[posLine]; found {
		return r, posLine, true
	}
	if r, found := set[posLine-1]; found {
		return r, posLine - 1, true
	}
	return "", 0, false
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

// pkgRules run once per loaded package and modRules once over the
// whole module, after the reference graph is built, each in the order
// listed. Each reports under its rule's name; determinism has one
// check of each kind.
var (
	pkgRules = []func(*pass){
		checkDeterminism, checkUnits, checkPanics, checkExhaustive,
	}
	modRules = []func([]*pass, *graph){
		checkDeterminismReach, checkSharedState,
	}
)

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
	var passes []*pass
	for _, pkg := range pkgs {
		p := &pass{
			pkg:        pkg,
			fset:       fset,
			units:      units,
			ordered:    collectAnnotations(fset, pkg, OrderedAnnotation),
			totalorder: collectAnnotations(fset, pkg, TotalOrderAnnotation),
			sharedok:   collectReasonAnnotations(fset, pkg, SharedOKAnnotation),
			report:     report,
		}
		passes = append(passes, p)
		for _, check := range pkgRules {
			check(p)
		}
	}

	// Module-wide passes: these see every loaded package at once.
	graph := buildGraph(passes)
	for _, check := range modRules {
		check(passes, graph)
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
	// Word boundary: "//tilesim:sharedok why" is the waiver with a
	// reason, "//tilesim:sharedokay" is not the waiver at all.
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

// collectReasonAnnotations indexes the lines of each file carrying the
// given annotation, mapped to the trailing free-text reason (empty when
// the annotation stands alone).
func collectReasonAnnotations(fset *token.FileSet, pkg *Package, annotation string) map[*ast.File]map[int]string {
	out := make(map[*ast.File]map[int]string)
	for _, f := range pkg.Files {
		lines := make(map[int]string)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				reason, ok := annotationRest(c, annotation)
				if !ok {
					continue
				}
				lines[fset.Position(c.Pos()).Line] = reason
			}
		}
		out[f] = lines
	}
	return out
}

// fileOf returns the pass's file containing pos, or nil.
func (p *pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// collectUnits records every //tilesim:unit-annotated type declaration
// of the package into the registry, keyed "pkgpath.TypeName".
func collectUnits(pkg *Package, units map[string]string) {
	record := func(doc *ast.CommentGroup, name string) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if rest, ok := strings.CutPrefix(text, UnitAnnotation); ok {
				unit := strings.TrimSpace(rest)
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
