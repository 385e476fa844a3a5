package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkDeterminism flags the sources of silent nondeterminism in a
// cycle-level simulator:
//
//  1. range over a map in a simulator-core (internal/) package: Go
//     randomizes map iteration order per run, so any map-order-dependent
//     side effect makes two identically-seeded runs diverge. A statement
//     may be annotated //tilesim:ordered when its body is order-safe
//     (e.g. it only collects keys that are sorted before use). Inside
//     an annotated range, floating-point accumulation is still flagged:
//     float addition is not associative, so a float sum is never
//     order-independent.
//  2. wall-clock time (time.Now, time.Since, time.Until) outside cmd/:
//     simulated time must come from the sim.Kernel clock.
//  3. global math/rand and math/rand/v2 functions (rand.Intn,
//     rand.IntN, rand.Float64, ...) outside cmd/: the global source is
//     shared, seedable from anywhere, and in modern Go auto-seeded per
//     process; simulator randomness must flow from an explicitly seeded
//     generator.
//  4. sort.Slice in internal/ packages: elements the comparator
//     considers equal end up in an order that depends on the input
//     permutation and on the sort algorithm of the current Go release.
//     The rule demands sort.SliceStable (the finding carries that fix),
//     or a //tilesim:totalorder annotation on the call asserting, with
//     a comment proving it, that no two distinct elements compare
//     equal.
//
// checkDeterminismReach carries rules 2 and 3 through the module's
// reference graph.
func checkDeterminism(p *pass) {
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				p.checkMapRange(f, n)
			case *ast.SelectorExpr:
				p.checkClockAndRand(n)
			case *ast.CallExpr:
				p.checkSortSlice(f, n)
			}
			return true
		})
	}
}

func (p *pass) checkMapRange(f *ast.File, n *ast.RangeStmt) {
	if !p.inInternal() {
		return
	}
	typ := p.mapType(n.X)
	if typ == nil {
		return
	}
	if p.orderedAt(f, n.Pos()) {
		p.checkFloatAccum(n)
		return
	}
	p.reportf("determinism", n.Pos(),
		"range over map %s: iteration order is randomized per run; iterate sorted keys, use a slice, or annotate //%s if order-safe",
		types.TypeString(typ, types.RelativeTo(p.pkg.Pkg)), OrderedAnnotation)
}

// mapType returns e's type when it is a map, and nil otherwise.
func (p *pass) mapType(e ast.Expr) types.Type {
	t := p.pkg.Info.TypeOf(e)
	if t == nil {
		return nil
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return nil
	}
	return t
}

// checkFloatAccum walks one ordered map-range body looking for float
// accumulation (acc += v, acc -= v, acc = acc + v, acc = acc - v into
// a float-underlying lvalue, energy.Joules included). Function-literal
// bodies do not run per iteration, and nested map ranges are judged
// when the walk reaches them as ranges of their own.
func (p *pass) checkFloatAccum(rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			return p.mapType(n.X) == nil
		case *ast.AssignStmt:
			if lhs, ok := p.floatAccumTarget(n); ok {
				p.reportf("determinism", n.Pos(),
					"floating-point accumulation of %s inside a range over a map: summation order changes float results (even under //%s); iterate sorted keys or accumulate an integer",
					types.ExprString(lhs), OrderedAnnotation)
			}
		}
		return true
	})
}

// floatAccumTarget reports whether the assignment accumulates into a
// float-underlying lvalue, returning that lvalue.
func (p *pass) floatAccumTarget(n *ast.AssignStmt) (ast.Expr, bool) {
	switch n.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		if len(n.Lhs) == 1 && p.isFloat(n.Lhs[0]) {
			return n.Lhs[0], true
		}
	case token.ASSIGN:
		// x = x + v / x = x - v spelled out.
		for i, lhs := range n.Lhs {
			if i >= len(n.Rhs) || !p.isFloat(lhs) {
				continue
			}
			be, ok := ast.Unparen(n.Rhs[i]).(*ast.BinaryExpr)
			if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
				continue
			}
			want := types.ExprString(lhs)
			if types.ExprString(ast.Unparen(be.X)) == want || types.ExprString(ast.Unparen(be.Y)) == want {
				return lhs, true
			}
		}
	default: // other assignment operators do not accumulate additively
	}
	return nil, false
}

// isFloat reports whether the expression's type has a floating-point
// underlying type.
func (p *pass) isFloat(e ast.Expr) bool {
	tv, ok := p.pkg.Info.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// forbiddenClockFuncs are the wall-clock entry points of package time.
var forbiddenClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// globalRandFuncs lists, per import path, the package-level functions
// that draw from that package's shared global source.
var globalRandFuncs = map[string]map[string]bool{
	"math/rand": {
		"Int": true, "Intn": true, "Int31": true, "Int31n": true,
		"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
		"Float32": true, "Float64": true, "ExpFloat64": true,
		"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
		"Read": true,
	},
	"math/rand/v2": {
		"Int": true, "IntN": true, "Int32": true, "Int32N": true,
		"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
		"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
		"N": true, "Float32": true, "Float64": true, "ExpFloat64": true,
		"NormFloat64": true, "Perm": true, "Shuffle": true,
	},
}

// seededRand is the explicitly seeded generator a global draw's finding
// suggests, per import path.
var seededRand = map[string]string{
	"math/rand":    "rand.New(rand.NewSource(seed))",
	"math/rand/v2": "rand.New(rand.NewPCG(seed1, seed2))",
}

// forbiddenSource reports whether fn is a nondeterminism entry point:
// a wall-clock read or a global math/rand draw, returned as its display
// name ("time.Now", "rand.IntN"). Methods are never sources —
// (*rand.Rand).Float64 on an explicitly seeded generator is exactly
// the sanctioned alternative to the package-level rand.Float64.
func forbiddenSource(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	if pkg.Path() == "time" && forbiddenClockFuncs[fn.Name()] {
		return "time." + fn.Name(), true
	}
	if globalRandFuncs[pkg.Path()][fn.Name()] {
		return "rand." + fn.Name(), true
	}
	return "", false
}

func (p *pass) checkClockAndRand(sel *ast.SelectorExpr) {
	if p.inCmd() {
		return
	}
	fn, ok := p.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	src, ok := forbiddenSource(fn)
	if !ok {
		return
	}
	if fn.Pkg().Path() == "time" {
		p.reportf("determinism", sel.Pos(),
			"%s: wall-clock time in a simulator package; use the sim.Kernel clock (cmd/ and _test.go files are exempt)", src)
		return
	}
	p.reportf("determinism", sel.Pos(),
		"%s draws from the global source; use an explicit %s so runs are reproducible",
		src, seededRand[fn.Pkg().Path()])
}

func (p *pass) checkSortSlice(f *ast.File, call *ast.CallExpr) {
	if !p.inInternal() {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := p.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sort" || fn.Name() != "Slice" {
		return
	}
	if p.totalOrderAt(f, call.Pos()) {
		return
	}
	fix := &SuggestedFix{
		Message: "replace sort.Slice with sort.SliceStable",
		Edits:   []TextEdit{p.edit(sel.Sel.Pos(), sel.Sel.End(), "SliceStable")},
	}
	p.reportFix("determinism", call.Pos(), fix,
		"sort.Slice tie-breaking order is unspecified and unstable; use sort.SliceStable, or annotate //%s with a comment proving the comparator is a total order",
		TotalOrderAnnotation)
}

// checkDeterminismReach is the module-wide closure of rules 2 and 3:
// it flags internal/ functions from which a wall-clock read or a global
// math/rand draw is *transitively* reachable — through helper calls,
// through methods, and through function values stored in package-level
// variables — with the whole call chain in the message, so a
// nondeterministic helper cannot hide behind layers of indirection.
//
// Approximation envelope (DESIGN.md §8): edges follow every
// *reference* to a module function or package-level variable, whether
// it is a call or a stored value, so a function that merely stores a
// tainted helper is treated as reaching it (sound for reachability,
// possibly over-approximate for execution). Dynamic dispatch through
// interface methods and function values received as parameters is not
// resolved — a source smuggled through those is a known false
// negative; recursion cycles that reach a source only through the
// cycle are likewise not chased.
//
// Functions that reference a source directly are skipped: the
// per-callsite check already flags the exact reference, and repeating
// it per caller would bury the primary finding.
func checkDeterminismReach(_ []*pass, g *graph) {
	// reach memoizes, per node ID, the chain of display names leading
	// to a forbidden source (nil when none is reachable).
	reach := make(map[string][]string)
	visiting := make(map[string]bool)
	var visit func(id string) []string
	visit = func(id string) []string {
		if chain, done := reach[id]; done {
			return chain
		}
		if visiting[id] {
			return nil // break cycles; see the envelope note above
		}
		visiting[id] = true
		defer delete(visiting, id)
		node := g.nodes[id]
		var chain []string
		if len(node.sources) > 0 {
			chain = []string{node.name, node.sources[0]}
		} else {
			for _, ref := range node.refs {
				if sub := visit(ref); sub != nil {
					chain = append([]string{node.name}, sub...)
					break
				}
			}
		}
		reach[id] = chain
		return chain
	}

	for _, id := range g.sortedNodeIDs() {
		node := g.nodes[id]
		if node.decl == nil || !node.p.inInternal() || node.p.inCmd() || len(node.sources) > 0 {
			continue
		}
		if chain := visit(id); chain != nil {
			node.p.reportf("determinism", node.pos,
				"%s transitively reaches %s (%s); thread simulated time / a seeded *rand.Rand through instead",
				node.name, chain[len(chain)-1], strings.Join(chain, " -> "))
		}
	}
}
