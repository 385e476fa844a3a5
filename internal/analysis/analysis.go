// Package analysis implements tilesimvet, the simulator-specific static
// checks that keep tilesim's cycle-level results bit-for-bit
// reproducible and its failure modes diagnosable. Run applies all 12
// rules; each finding is labelled with its rule's name:
//
//   - determinism: no map iteration in simulator packages (Go randomizes
//     range-over-map order) unless explicitly annotated as order-safe,
//     no wall-clock time, and no global/unseeded math/rand outside
//     cmd/ and test files.
//   - stablesort: sort.Slice in simulator packages must be
//     sort.SliceStable (or carry a //tilesim:totalorder annotation
//     proving the comparator is a total order), since the tie-breaking
//     order of an unstable sort is unspecified and silently diverges.
//   - floatorder: floating-point accumulation inside a range over a map
//     is flagged even when the range is //tilesim:ordered-annotated —
//     float summation is not associative, so iteration order changes
//     the result bits.
//   - units: additive arithmetic, compound assignment and comparisons
//     must not mix values of distinct physical units (cycles, joules,
//     flits, seconds). Unit types are declared with a //tilesim:unit
//     annotation on their type declaration.
//   - panics: every panic in internal/ packages must carry a constant
//     "<pkg>: ..."-prefixed message so a crash names its subsystem.
//   - exhaustive: a switch over an enum-like named type must cover
//     every declared constant or carry a default clause, so adding an
//     enum value cannot silently fall through a protocol dispatch.
//   - obshooks: observability hook calls (obs.Tracer methods) inside
//     loop bodies must be nil-guarded so disabled observability costs
//     one pointer check.
//   - metricskeys: obs.Registry registrations must use
//     constant-rooted, pointer-free metric names so metric snapshots
//     stay byte-deterministic across runs.
//   - taint: a module-wide call-graph pass flags internal/ functions
//     from which time.Now or the global math/rand source is
//     *transitively* reachable through helpers and stored function
//     values, closing the hole the per-callsite determinism check
//     leaves open.
//   - canoncover: every Canonical() method must reference every
//     exported field of its receiver struct (recursively through
//     module-declared struct fields), promoting the runtime
//     field-coverage reflection test to a vet-time guarantee.
//   - sharedstate: code reachable from a go statement or a
//     sweep.Runner callback must not touch unsynchronized shared
//     mutable state unless a reasoned //tilesim:sharedok waives it
//     (see sharedstate.go).
//   - poollife: pooled-object lifetime discipline for the freelists
//     behind //tilesim:pool / //tilesim:release annotations — no use
//     after release on any path, no double release, no retention into
//     fields, slices, closures or sim.Event payloads, every release
//     dominated by an acquire, no leaks (see poollife.go and DESIGN.md
//     §17).
//
// Some diagnostics carry a machine-applicable SuggestedFix
// (sort.Slice -> sort.SliceStable, panic-prefix insertion, nil-guard
// wrapping); ApplyFixes applies them atomically and gofmt-clean, and
// cmd/tilesimvet surfaces them behind -fix.
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
	// PoolAnnotation marks a function declaration as a pool acquire
	// point: calling it yields a pooled object (the function's
	// pointer-to-named result type). The poollife rule tracks the
	// lifetime of every value acquired this way.
	//
	//	//tilesim:pool
	//	func (p *Pool) Get() *Message { ... }
	PoolAnnotation = "tilesim:pool"
	// ReleaseAnnotation marks a function declaration as a pool release
	// point. Without a trailing type name the released objects are the
	// call's pooled-pointer arguments; with one —
	//
	//	//tilesim:release MSHREntry
	//	func (m *MSHR) Free(block uint64, ...) ...
	//
	// — the release identifies the object by key rather than by
	// pointer, and every live local of that pooled type is considered
	// released at the call (the MSHR.Free shape).
	ReleaseAnnotation = "tilesim:release"
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
	// poolacq and poolrel map file -> line -> annotation tail for the
	// //tilesim:pool and //tilesim:release pool-API annotations (the
	// tail of a release names the pooled type for by-key releases).
	poolacq map[*ast.File]map[int]string
	poolrel map[*ast.File]map[int]string

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

// module bundles every loaded package for the analyzers that need a
// whole-program view (taint's call graph, canoncover's cross-package
// method closure).
type module struct {
	passes []*pass
	fset   *token.FileSet
	// targets indexes the loaded target packages by import path, so
	// "declared in the analyzed module" is decidable for types that
	// reach a pass through export data.
	targets map[string]*Package
}

// pkgRules run once per loaded package and modRules once over the
// whole module, after the reference graph is built, each in the order
// listed. Every rule reports under its own analyzer name.
var (
	pkgRules = []func(*pass){
		checkDeterminism, checkStableSort, checkFloatOrder, checkUnits,
		checkPanics, checkExhaustive, checkObsHooks, checkMetricsKeys,
	}
	modRules = []func(*module, *graph){
		checkTaint, checkCanonCover, checkSharedState, checkPoolLife,
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
	mod := &module{fset: fset, targets: make(map[string]*Package)}
	for _, pkg := range pkgs {
		p := &pass{
			pkg:        pkg,
			fset:       fset,
			units:      units,
			ordered:    collectAnnotations(fset, pkg, OrderedAnnotation),
			totalorder: collectAnnotations(fset, pkg, TotalOrderAnnotation),
			sharedok:   collectReasonAnnotations(fset, pkg, SharedOKAnnotation),
			poolacq:    collectReasonAnnotations(fset, pkg, PoolAnnotation),
			poolrel:    collectReasonAnnotations(fset, pkg, ReleaseAnnotation),
			report:     report,
		}
		mod.passes = append(mod.passes, p)
		mod.targets[pkg.Path] = pkg
		for _, check := range pkgRules {
			check(p)
		}
	}

	// Module-wide passes: these see every loaded package at once.
	graph := buildGraph(mod)
	for _, check := range modRules {
		check(mod, graph)
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
	// Word boundary: "//tilesim:pool miss" is the pool annotation with
	// a tail, "//tilesim:poolish" is not the pool annotation at all.
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
