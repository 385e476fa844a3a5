package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// checkSharedState is the parallel-safety rule that pre-paves
// deterministic intra-run parallelism: any function reachable from a go
// statement, or stored into one of sweep.Runner's callback fields (those
// run on worker goroutines), is "concurrent code", and concurrent code
// must not touch unsynchronized shared mutable state. Three access
// shapes are flagged:
//
//   - a write to a package-level variable;
//   - a read of a package-level variable that some function in the
//     module writes (immutable tables initialized in their var
//     declaration are fine — nobody writes them);
//   - a write to a variable captured from an enclosing function inside
//     a goroutine-reachable function literal.
//
// Exemptions: variables of sync/atomic-provided types synchronize
// themselves, and a function whose body takes a sync (RW)Mutex lock is
// presumed to guard its shared accesses — the rule checks discipline,
// not lock coverage. Anything else needs //tilesim:sharedok <reason>
// (e.g. the disjoint per-job result slots a worker pool writes): the
// reason is mandatory, and a waiver that suppresses nothing is
// reported as stale.
func checkSharedState(passes []*pass, g *graph) {
	roots := append([]string(nil), g.goRoots...)
	// Callbacks stored into sweep.Runner's function-typed fields run on
	// (or are serialized between) worker goroutines: their conduit nodes
	// seed the concurrent set exactly like go statements.
	for _, id := range g.sortedNodeIDs() {
		if strings.HasPrefix(id, "field:") && strings.Contains(id, "/internal/sweep.") {
			roots = append(roots, id)
		}
	}
	concurrent := g.reachableFrom(roots)
	written := moduleWrittenVars(g)

	used := make(map[*pass]map[*ast.File]map[int]bool)
	s := &sharedScan{written: written, used: used, reported: make(map[string]bool)}
	for _, id := range g.sortedNodeIDs() {
		rootName, isConcurrent := concurrent[id]
		if !isConcurrent {
			continue
		}
		node := g.nodes[id]
		if node.body() == nil {
			continue
		}
		s.scan(node, rootName)
	}

	reportStaleWaivers(passes, "sharedstate", SharedOKAnnotation,
		func(p *pass) map[*ast.File]map[int]string { return p.sharedok },
		used)
}

func markWaiverUsed(used map[*pass]map[*ast.File]map[int]bool, p *pass, f *ast.File, line int) {
	if used[p] == nil {
		used[p] = make(map[*ast.File]map[int]bool)
	}
	if used[p][f] == nil {
		used[p][f] = make(map[int]bool)
	}
	used[p][f][line] = true
}

// reportStaleWaivers reports every waiver annotation of the given kind
// that suppressed no finding: a stale waiver hides nothing and rots
// into misdocumentation.
func reportStaleWaivers(passes []*pass, analyzer, annotation string,
	waivers func(*pass) map[*ast.File]map[int]string,
	used map[*pass]map[*ast.File]map[int]bool) {
	for _, p := range passes {
		for _, f := range p.pkg.Files {
			set := waivers(p)[f]
			if len(set) == 0 {
				continue
			}
			lines := make([]int, 0, len(set))
			for line := range set { //tilesim:ordered — lines are sorted below
				lines = append(lines, line)
			}
			sort.Ints(lines)
			for _, line := range lines {
				if used[p] != nil && used[p][f] != nil && used[p][f][line] {
					continue
				}
				p.reportf(analyzer, lineStartPos(p, f, line),
					"stale //%s waiver: no %s finding on this or the next line", annotation, analyzer)
			}
		}
	}
}

// lineStartPos returns a position on the given line of f (the line's
// first character).
func lineStartPos(p *pass, f *ast.File, line int) token.Pos {
	tf := p.fset.File(f.Pos())
	if tf == nil || line < 1 || line > tf.LineCount() {
		return f.Pos()
	}
	return tf.LineStart(line)
}

// moduleWrittenVars collects the IDs of package-level variables written
// by any function body in the module. Initialization in the var
// declaration itself does not count: a table that is only ever
// initialized is immutable at run time.
func moduleWrittenVars(g *graph) map[string]bool {
	written := make(map[string]bool)
	for _, id := range g.sortedNodeIDs() {
		node := g.nodes[id]
		body := node.body()
		if body == nil {
			continue
		}
		ast.Inspect(body, func(n ast.Node) bool {
			for _, target := range writeTargets(n) {
				if v, ok := pkgLevelVar(node.p, target); ok {
					written[varID(v)] = true
				}
			}
			return true
		})
	}
	return written
}

// writeTargets returns the base identifiers n writes through, if n is a
// write statement.
func writeTargets(n ast.Node) []*ast.Ident {
	var targets []*ast.Ident
	add := func(e ast.Expr) {
		if ident := baseIdent(e); ident != nil {
			targets = append(targets, ident)
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			add(lhs)
		}
	case *ast.IncDecStmt:
		add(n.X)
	}
	return targets
}

// baseIdent unwraps selectors, indexing and parens to the leftmost
// identifier, or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// pkgLevelVar resolves ident to a package-level *types.Var, if it is one.
func pkgLevelVar(p *pass, ident *ast.Ident) (*types.Var, bool) {
	obj := p.pkg.Info.Uses[ident]
	if obj == nil {
		obj = p.pkg.Info.Defs[ident]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return nil, false
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil, false
	}
	return v, true
}

// sharedScan walks the concurrent set.
type sharedScan struct {
	written  map[string]bool
	used     map[*pass]map[*ast.File]map[int]bool
	reported map[string]bool
}

func (s *sharedScan) scan(node *graphNode, root string) {
	p := node.p
	body := node.body()
	f := p.fileOf(body.Pos())

	// Lock heuristic: a body that takes a sync mutex is presumed to
	// guard what it touches.
	if bodyTakesLock(p, body) {
		return
	}

	writeIdents := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		for _, target := range writeTargets(n) {
			writeIdents[target] = true
			if v, ok := pkgLevelVar(p, target); ok {
				if syncedType(v.Type()) {
					continue
				}
				s.report(p, f, target.Pos(),
					"write to package-level variable %s from concurrent code (via %s); guard it or make it per-worker state", v.Name(), root)
				continue
			}
			if node.lit == nil {
				continue
			}
			// Inside a goroutine-reachable funclit, a write through a
			// captured variable mutates state shared with the spawner.
			if v, ok := capturedVar(p, node.lit, target); ok && !syncedType(v.Type()) {
				s.report(p, f, target.Pos(),
					"write to captured variable %s from concurrent code (via %s); synchronize or use disjoint per-job slots", v.Name(), root)
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		ident, ok := n.(*ast.Ident)
		if !ok || writeIdents[ident] {
			return true
		}
		v, ok := pkgLevelVar(p, ident)
		if !ok || !s.written[varID(v)] || syncedType(v.Type()) {
			return true
		}
		s.report(p, f, ident.Pos(),
			"read of package-level variable %s (written elsewhere in the module) from concurrent code (via %s); synchronize or snapshot it", v.Name(), root)
		return true
	})
}

// capturedVar reports whether ident resolves to a non-package-level
// variable declared outside lit — a closure capture.
func capturedVar(p *pass, lit *ast.FuncLit, ident *ast.Ident) (*types.Var, bool) {
	v, ok := p.pkg.Info.Uses[ident].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return nil, false
	}
	if v.Parent() == v.Pkg().Scope() {
		return nil, false
	}
	if lit.Pos() <= v.Pos() && v.Pos() < lit.End() {
		return nil, false
	}
	return v, true
}

// bodyTakesLock reports whether body calls Lock or RLock on a sync
// type.
func bodyTakesLock(p *pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if fn, ok := p.pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			found = true
			return false
		}
		return true
	})
	return found
}

// syncedType reports whether t (or the pointee) is a type provided by
// sync or sync/atomic — those synchronize their own access.
func syncedType(t types.Type) bool {
	named, ok := namedOf(t)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "sync" || pkg.Path() == "sync/atomic"
}

// report files one sharedstate finding unless a //tilesim:sharedok
// waiver covers it; used waivers are recorded for the stale audit, and
// a waiver with no reason is itself reported.
func (s *sharedScan) report(p *pass, f *ast.File, pos token.Pos, format string, args ...any) {
	if reason, line, ok := waiverAt(p, p.sharedok, f, pos); ok {
		markWaiverUsed(s.used, p, f, line)
		if reason == "" {
			s.reportOnce(p, pos, "//%s waiver needs a reason", SharedOKAnnotation)
		}
		return
	}
	s.reportOnce(p, pos, format, args...)
}

func (s *sharedScan) reportOnce(p *pass, pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if s.reported[key] {
		return
	}
	s.reported[key] = true
	p.reportf("sharedstate", pos, "%s", msg)
}
