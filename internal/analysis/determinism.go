package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkDeterminism flags the sources of silent nondeterminism in a
// cycle-level simulator:
//
//  1. range over a map in a simulator-core (internal/) package: Go
//     randomizes map iteration order per run, so any map-order-dependent
//     side effect makes two identically-seeded runs diverge. There is
//     no annotation: code that must visit every entry keeps its keys in
//     a slice of fixed order.
//  2. wall-clock time (time.Now, time.Since, time.Until) outside cmd/:
//     simulated time must come from the sim.Kernel clock.
//  3. global math/rand and math/rand/v2 functions (rand.Intn,
//     rand.IntN, rand.Float64, ...) outside cmd/: the global source is
//     shared, seedable from anywhere, and in modern Go auto-seeded per
//     process; simulator randomness must flow from an explicitly seeded
//     generator.
//  4. sort.Slice and slices.SortFunc in internal/ packages: elements
//     the comparator considers equal end up in an order that depends on
//     the input permutation and on the sort algorithm of the current Go
//     release. The rule demands the stable spelling, or a
//     //tilesim:totalorder annotation on the call asserting, with a
//     comment proving it, that no two distinct elements compare equal.
//  5. a write to a package-level variable in internal/ packages: an
//     assignment or ++/-- whose base identifier is one, init bodies
//     included. State that outlives a run changes the next run's result
//     in a sweep, and it races between the sweep's workers; a table is
//     built in its declaration instead. Types from sync and sync/atomic
//     synchronize themselves and are exempt.
func checkDeterminism(p *pass) {
	for _, f := range p.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				p.checkMapRange(n)
			case *ast.SelectorExpr:
				p.checkClockAndRand(n)
			case *ast.CallExpr:
				p.checkUnstableSort(f, n)
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						p.checkGlobalWrite(lhs)
					}
				}
			case *ast.IncDecStmt:
				p.checkGlobalWrite(n.X)
			}
			return true
		})
	}
}

func (p *pass) checkMapRange(n *ast.RangeStmt) {
	if !p.inInternal() {
		return
	}
	typ := p.pkg.Info.TypeOf(n.X)
	if typ == nil {
		return
	}
	if _, isMap := typ.Underlying().(*types.Map); !isMap {
		return
	}
	p.reportf("determinism", n.Pos(),
		"range over map %s: iteration order is randomized per run; keep the keys in a slice and iterate that",
		types.TypeString(typ, types.RelativeTo(p.pkg.Pkg)))
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

func (p *pass) checkClockAndRand(sel *ast.SelectorExpr) {
	if p.inCmd() {
		return
	}
	fn, ok := p.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Methods are never sources: (*rand.Rand).Float64 on an explicitly
	// seeded generator is exactly the sanctioned alternative to the
	// package-level rand.Float64.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	path := fn.Pkg().Path()
	switch {
	case path == "time" && forbiddenClockFuncs[fn.Name()]:
		p.reportf("determinism", sel.Pos(),
			"time.%s: wall-clock time in a simulator package; use the sim.Kernel clock (cmd/ and _test.go files are exempt)", fn.Name())
	case globalRandFuncs[path][fn.Name()]:
		p.reportf("determinism", sel.Pos(),
			"rand.%s draws from the global source; use an explicit %s so runs are reproducible",
			fn.Name(), seededRand[path])
	}
}

// unstableSorts maps each comparator sort whose tie-breaking order is
// unspecified to the stable spelling its finding suggests.
var unstableSorts = map[string]string{
	"sort.Slice":      "sort.SliceStable",
	"slices.SortFunc": "slices.SortStableFunc",
}

func (p *pass) checkUnstableSort(f *ast.File, call *ast.CallExpr) {
	if !p.inInternal() {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := p.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	name := fn.Pkg().Path() + "." + fn.Name()
	stable, ok := unstableSorts[name]
	if !ok || p.totalOrderAt(f, call.Pos()) {
		return
	}
	p.reportf("determinism", call.Pos(),
		"%s tie-breaking order is unspecified and unstable; use %s, or annotate //%s with a comment proving the comparator is a total order",
		name, stable, TotalOrderAnnotation)
}

// checkGlobalWrite flags lhs, the target of an assignment or ++/--,
// when its base identifier is a package-level variable (rule 5).
func (p *pass) checkGlobalWrite(lhs ast.Expr) {
	if !p.inInternal() {
		return
	}
	id := p.baseIdent(lhs)
	if id == nil {
		return
	}
	v, ok := p.pkg.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() || syncedType(v.Type()) {
		return
	}
	name := v.Name()
	if v.Pkg() != p.pkg.Pkg {
		name = v.Pkg().Name() + "." + name
	}
	p.reportf("determinism", lhs.Pos(),
		"write to package-level variable %s: state that outlives a run changes the next run's result and races between sweep workers; keep it in per-run state, or build the table in its declaration",
		name)
}

// baseIdent unwraps selectors, indexing, dereferences and parens to the
// leftmost identifier, or nil. A qualified identifier (pkg.Var) is its
// own base.
func (p *pass) baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := p.pkg.Info.Uses[id].(*types.PkgName); isPkg {
					return x.Sel
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// syncedType reports whether t, or what it points to, is a type from
// sync or sync/atomic: those synchronize their own access.
func syncedType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "sync" || path == "sync/atomic"
}
