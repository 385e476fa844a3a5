// Package analysis implements tilesimvet, the simulator-specific static
// checks that keep tilesim's cycle-level results bit-for-bit
// reproducible and its failure modes diagnosable:
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
//   - taint: a module-wide call-graph pass flags internal/ functions
//     from which time.Now or the global math/rand source is
//     *transitively* reachable through helpers and stored function
//     values, closing the hole the per-callsite determinism check
//     leaves open.
//   - unit safety: additive arithmetic, compound assignment and
//     comparisons must not mix values of distinct physical units
//     (cycles, joules, flits, seconds). Unit types are declared with a
//     //tilesim:unit annotation on their type declaration.
//   - panic hygiene: every panic in internal/ packages must carry a
//     constant "<pkg>: ..."-prefixed message so a crash names its
//     subsystem.
//   - exhaustiveness: a switch over an enum-like named type must cover
//     every declared constant or carry a default clause, so adding an
//     enum value cannot silently fall through a protocol dispatch.
//   - obs hooks: observability hook calls (obs.Tracer methods) inside
//     loop bodies must be nil-guarded so disabled observability costs
//     one pointer check, and interface-boxing hooks (Annotate) must
//     never run in a loop at all.
//   - canoncover: every Canonical() method must reference every
//     exported field of its receiver struct (recursively through
//     module-declared struct fields), promoting the runtime
//     field-coverage reflection test to a vet-time guarantee.
//   - metricskeys: obs.Registry registrations must use
//     constant-rooted, pointer-free metric names so metric snapshots
//     stay byte-deterministic across runs.
//   - poollife: pooled-object lifetime discipline for the freelists
//     behind //tilesim:pool / //tilesim:release annotations — no use
//     after release on any path, no double release, no retention into
//     fields/slices/closures/sim.Event payloads without a
//     generation-snapshot guard or a reasoned //tilesim:retainok
//     waiver, every release dominated by an acquire, no leaks (see
//     poollife.go and DESIGN.md §17).
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
	// HotPathAnnotation marks a function declaration as a simulator
	// hot-path entry point (event loop, mesh transit, coherence
	// handler). The hotalloc rule checks the annotated function and
	// every module function transitively reachable from it for
	// allocation sources.
	HotPathAnnotation = "tilesim:hotpath"
	// AllocOKAnnotation waives one hotalloc finding:
	//
	//	//tilesim:allocok one transit per message, pooled in Network.free
	//
	// The reason is mandatory, and a waiver that no longer suppresses a
	// finding is itself reported as stale, so waivers cannot rot.
	AllocOKAnnotation = "tilesim:allocok"
	// SharedOKAnnotation waives one sharedstate finding the same way
	// (mandatory reason, stale detection):
	//
	//	//tilesim:sharedok disjoint per-job slots, joined by wg.Wait
	SharedOKAnnotation = "tilesim:sharedok"
	// NoEscapeAnnotation asserts that the allocation on its line stays
	// on the stack; `tilesimvet -escapes` fails when the compiler's
	// escape analysis disagrees (see Escapes).
	NoEscapeAnnotation = "tilesim:noescape"
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
	// RetainOKAnnotation waives one poollife escape finding (mandatory
	// reason, stale detection, like the other waivers):
	//
	//	//tilesim:retainok terminal fault path: the drop event is the sole owner
	//
	// The contract the reason must defend: the retained pointer is
	// either released exactly once by its new owner, or every later
	// dereference is guarded by a generation check.
	RetainOKAnnotation = "tilesim:retainok"
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
	// totalorder does the same for //tilesim:totalorder and hotpath
	// for //tilesim:hotpath.
	ordered    map[*ast.File]map[int]bool
	totalorder map[*ast.File]map[int]bool
	hotpath    map[*ast.File]map[int]bool
	// allocok and sharedok map file -> line -> waiver reason (empty
	// string when the annotation carries no reason, which is itself a
	// finding).
	allocok  map[*ast.File]map[int]string
	sharedok map[*ast.File]map[int]string
	// poolacq and poolrel map file -> line -> annotation tail for the
	// //tilesim:pool and //tilesim:release pool-API annotations (the
	// tail of a release names the pooled type for by-key releases);
	// retainok carries poollife escape waivers.
	poolacq  map[*ast.File]map[int]string
	poolrel  map[*ast.File]map[int]string
	retainok map[*ast.File]map[int]string

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

// rule binds a registered analyzer name to its implementation: pkg
// runs once per loaded package, mod runs once over the whole module
// (after the reference graph is built). A rule has one or the other.
type rule struct {
	name string
	desc string
	pkg  func(*pass)
	mod  func(*module, *graph)
}

// ruleTable registers every analyzer, in execution order. Rule names
// match the Analyzer field of the diagnostics they emit, so -rules
// selections and finding filters agree.
var ruleTable = []rule{
	{name: "determinism", desc: "no map-range order, wall-clock time, or global rand in simulator packages", pkg: checkDeterminism},
	{name: "stablesort", desc: "sort.Slice must be sort.SliceStable or carry a //tilesim:totalorder proof", pkg: checkStableSort},
	{name: "floatorder", desc: "no floating-point accumulation in map iteration order", pkg: checkFloatOrder},
	{name: "units", desc: "arithmetic must not mix distinct //tilesim:unit physical units", pkg: checkUnits},
	{name: "panics", desc: "panics in internal/ must carry a constant \"<pkg>: \"-prefixed message", pkg: checkPanics},
	{name: "exhaustive", desc: "switches over enum-like types must cover every constant or have a default", pkg: checkExhaustive},
	{name: "obshooks", desc: "observability hooks in loops must be nil-guarded and never box", pkg: checkObsHooks},
	{name: "metricskeys", desc: "metric registrations must use constant-rooted, pointer-free names", pkg: checkMetricsKeys},
	{name: "taint", desc: "no module function may transitively reach wall-clock time or global rand", mod: checkTaint},
	{name: "canoncover", desc: "Canonical() methods must reference every exported receiver field", mod: checkCanonCover},
	{name: "hotalloc", desc: "no allocation sources reachable from //tilesim:hotpath roots", mod: checkHotAlloc},
	{name: "sharedstate", desc: "goroutine-reachable code must not touch unsynchronized shared state", mod: checkSharedState},
	{name: "poollife", desc: "pooled objects: no use-after-release, double-release, unguarded retention, or leaks", mod: checkPoolLife},
}

// RuleInfo names one registered analyzer for cmd/tilesimvet -list.
type RuleInfo struct {
	Name string
	Desc string
}

// Rules returns every registered analyzer in execution order.
func Rules() []RuleInfo {
	out := make([]RuleInfo, 0, len(ruleTable))
	for _, r := range ruleTable {
		out = append(out, RuleInfo{Name: r.name, Desc: r.desc})
	}
	return out
}

// selectRules resolves a -rules style selection into the enabled-name
// set. Entries enable rules by name; a leading '-' disables one. If any
// entry is a plain enable, the selection starts from only those rules;
// otherwise it starts from all of them. Unknown names are an error.
func selectRules(selection []string) (map[string]bool, error) {
	known := make(map[string]bool, len(ruleTable))
	for _, r := range ruleTable {
		known[r.name] = true
	}
	enabled := make(map[string]bool, len(ruleTable))
	explicit := false
	for _, s := range selection {
		if !strings.HasPrefix(s, "-") {
			explicit = true
		}
	}
	if !explicit {
		for name := range known { //tilesim:ordered — membership set, no iteration output
			enabled[name] = true
		}
	}
	for _, s := range selection {
		name, disable := strings.CutPrefix(s, "-")
		if !known[name] {
			return nil, fmt.Errorf("analysis: unknown rule %q (run tilesimvet -list for the registry)", name)
		}
		if disable {
			delete(enabled, name)
		} else {
			enabled[name] = true
		}
	}
	return enabled, nil
}

// Run loads the packages matched by patterns from dir and applies every
// analyzer, returning the findings sorted by position.
func Run(dir string, patterns []string) ([]Diagnostic, error) {
	return RunRules(dir, patterns, nil)
}

// RunRules is Run restricted to a rule selection (see selectRules; nil
// or empty runs everything). Disabling a rule also disables its waiver
// audit, so e.g. -rules=-hotalloc does not turn every //tilesim:allocok
// waiver into a stale-waiver finding.
func RunRules(dir string, patterns []string, selection []string) ([]Diagnostic, error) {
	enabled, err := selectRules(selection)
	if err != nil {
		return nil, err
	}
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
			hotpath:    collectAnnotations(fset, pkg, HotPathAnnotation),
			allocok:    collectReasonAnnotations(fset, pkg, AllocOKAnnotation),
			sharedok:   collectReasonAnnotations(fset, pkg, SharedOKAnnotation),
			poolacq:    collectReasonAnnotations(fset, pkg, PoolAnnotation),
			poolrel:    collectReasonAnnotations(fset, pkg, ReleaseAnnotation),
			retainok:   collectReasonAnnotations(fset, pkg, RetainOKAnnotation),
			report:     report,
		}
		mod.passes = append(mod.passes, p)
		mod.targets[pkg.Path] = pkg
		for _, r := range ruleTable {
			if r.pkg != nil && enabled[r.name] {
				r.pkg(p)
			}
		}
	}

	// Module-wide passes: these see every loaded package at once.
	graph := buildGraph(mod)
	for _, r := range ruleTable {
		if r.mod != nil && enabled[r.name] {
			r.mod(mod, graph)
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
