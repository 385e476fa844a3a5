package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkObsHooks enforces the zero-overhead contract of the
// observability layer (internal/obs, DESIGN.md §10) at its call sites:
// an obs.Tracer hook called inside a loop body must sit under a
// nil-guard on its receiver (`if x.tracer != nil { ... }`). The
// disabled configuration must cost exactly one pointer check per
// iteration, and calling a method on a nil *Tracer would panic the
// first time a trace is not attached.
//
// The rule applies only inside simulator-core (internal/) packages —
// the obs package itself and the cmd/ front-ends are exempt — and only
// to *lexical* loop bodies: a function literal forms a boundary, since
// its body does not execute per iteration of an enclosing loop.
func checkObsHooks(p *pass) {
	if !p.inInternal() || strings.HasSuffix(p.pkg.Path, "internal/obs") {
		return
	}
	for _, f := range p.pkg.Files {
		p.checkObsHooksFile(f)
	}
}

// span is a half-open source interval.
type span struct {
	pos, end token.Pos
}

func (s span) contains(p token.Pos) bool { return s.pos <= p && p < s.end }

func (p *pass) checkObsHooksFile(f *ast.File) {
	// First sweep: index the regions that decide a call's context —
	// loop bodies, function-literal bodies (lexical boundaries), and
	// the branch extents of nil-guard conditions, keyed by the guarded
	// expression's printed form. Statements wrapping a bare call are
	// indexed too, so a missing nil guard can suggest a wrapping fix.
	var loops, bounds []span
	guards := make(map[string][]span)
	stmtOf := make(map[*ast.CallExpr]*ast.ExprStmt)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, span{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, span{n.Body.Pos(), n.Body.End()})
		case *ast.FuncLit:
			bounds = append(bounds, span{n.Body.Pos(), n.Body.End()})
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				stmtOf[call] = n
			}
		case *ast.IfStmt:
			body := span{n.Body.Pos(), n.Body.End()}
			for _, e := range nonNilConjuncts(n.Cond) {
				guards[e] = append(guards[e], body)
			}
			if n.Else != nil {
				els := span{n.Else.Pos(), n.Else.End()}
				for _, e := range nilDisjuncts(n.Cond) {
					guards[e] = append(guards[e], els)
				}
			}
		}
		return true
	})

	// inLoop reports whether a position executes per loop iteration:
	// the innermost enclosing loop-or-funclit region must be a loop.
	inLoop := func(pos token.Pos) bool {
		var best span
		isLoop := false
		consider := func(s span, loop bool) {
			if s.contains(pos) && (best.pos == 0 || s.pos > best.pos) {
				best, isLoop = s, loop
			}
		}
		for _, s := range loops {
			consider(s, true)
		}
		for _, s := range bounds {
			consider(s, false)
		}
		return isLoop
	}
	guarded := func(recv string, pos token.Pos) bool {
		for _, s := range guards[recv] {
			if s.contains(pos) {
				return true
			}
		}
		return false
	}

	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := p.obsMethodCallee(sel, "Tracer")
		if fn == nil || !inLoop(call.Pos()) {
			return true
		}
		if recv := types.ExprString(sel.X); !guarded(recv, call.Pos()) {
			// When the unguarded call is a whole statement, wrapping it
			// in the guard is a safe mechanical fix.
			var fix *SuggestedFix
			if stmt, ok := stmtOf[call]; ok {
				fix = &SuggestedFix{
					Message: fmt.Sprintf("wrap the call in `if %s != nil { ... }`", recv),
					Edits: []TextEdit{
						p.insert(stmt.Pos(), "if "+recv+" != nil {\n"),
						p.insert(stmt.End(), "\n}"),
					},
				}
			}
			p.reportFix("obshooks", call.Pos(), fix,
				"obs hook %s.%s called in a loop without a nil guard on %s; wrap it in `if %s != nil { ... }` so disabled observability costs one pointer check",
				"Tracer", fn.Name(), recv, recv)
		}
		return true
	})
}

// nonNilConjuncts extracts the expressions an if-condition proves
// non-nil in its then-branch: the `x != nil` conjuncts of an `&&` chain.
func nonNilConjuncts(cond ast.Expr) []string {
	var out []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LAND:
				walk(e.X)
				walk(e.Y)
			case token.NEQ:
				if x, ok := nilComparand(e); ok {
					out = append(out, x)
				}
			default: // other operators prove nothing about nil-ness
			}
		}
	}
	walk(cond)
	return out
}

// nilDisjuncts extracts the expressions an if-condition proves non-nil
// in its else-branch: the `x == nil` disjuncts of an `||` chain.
func nilDisjuncts(cond ast.Expr) []string {
	var out []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LOR:
				walk(e.X)
				walk(e.Y)
			case token.EQL:
				if x, ok := nilComparand(e); ok {
					out = append(out, x)
				}
			default: // other operators prove nothing about nil-ness
			}
		}
	}
	walk(cond)
	return out
}

// nilComparand returns the printed non-nil side of a comparison against
// the nil identifier.
func nilComparand(e *ast.BinaryExpr) (string, bool) {
	if id, ok := ast.Unparen(e.Y).(*ast.Ident); ok && id.Name == "nil" {
		return types.ExprString(ast.Unparen(e.X)), true
	}
	if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && id.Name == "nil" {
		return types.ExprString(ast.Unparen(e.Y)), true
	}
	return "", false
}
