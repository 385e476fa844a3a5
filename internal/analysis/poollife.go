package analysis

// poollife is the pooled-object lifetime analysis.
// Intrusive freelists keep the hot path allocation-free — mesh
// transits, MSHR entries and coherence directory entries — and bring a
// bug class the garbage collector otherwise rules out: touching a
// recycled object. The rule machine-checks the ownership contracts
// those pools document in comments:
//
//	(a) use-after-release: no read or write of a pooled pointer on any
//	    path after its release point (read what the code needs first,
//	    release last);
//	(b) double-release: no path releases the same pointer twice;
//	(c) retention: a pooled pointer must not outlive the call that
//	    holds it, so storing it into a struct field, slice, map,
//	    channel, closure, composite literal, method value or sim.Event
//	    payload is always a finding;
//	(d) acquire/release pairing: a release must be dominated by an
//	    acquire (on every path into the release the pointer came from
//	    its pool), and a locally acquired object must be released,
//	    handed off, returned, or retained on some path (otherwise the
//	    header leaks out of its pool and the freelist never recovers
//	    it). Registry pools — the ones with a by-type release, whose
//	    acquire registers the object in a by-key structure the pool
//	    owns (MSHR entries, directory entries) — impose no caller-side
//	    obligation: the pool can always reach the object again.
//
// Pool APIs are declared by annotation on the function declaration:
// //tilesim:pool marks an acquire point (the pooled type is the
// function's pointer-to-named result), //tilesim:release marks a
// release point. A release annotation may name a type —
// "//tilesim:release MSHREntry" — for pools that release by key rather
// than by pointer (MSHR.Free(block)): at such a call every live local
// of that pooled type is considered released.
//
// The analysis is a per-function abstract interpretation over the
// statement tree: branch environments are cloned and merged (branches
// ending in return/panic do not merge back), loop bodies are walked
// twice (a fixpoint for the two-level lattice), and each variable
// carries two bits — may-be-released and may-be-unacquired. It is
// alias-light by design: copying a pooled pointer to another local
// transfers the tracking; pointers reconstructed through fields or
// containers are out of scope (each pool's release panics on a second
// release of the same object instead).
//
// The bodies of annotated acquire/release functions are exempt for
// their own pooled type (pool internals legitimately touch freelist
// links after the logical release) but remain checked for every other
// pooled type, so an acquire wrapper that stores a different pool's
// object into a field is still caught.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// declAnnotation returns the tail of the given reason-annotation when
// it covers a function declaration: anywhere in the doc comment, or on
// the line of (or immediately above) the func keyword.
func declAnnotation(p *pass, lines map[*ast.File]map[int]string, f *ast.File, decl *ast.FuncDecl) (string, bool) {
	if lines == nil {
		return "", false
	}
	if decl.Doc != nil {
		set := lines[f]
		for _, c := range decl.Doc.List {
			if rest, ok := set[p.fset.Position(c.Pos()).Line]; ok {
				return rest, true
			}
		}
	}
	if rest, _, ok := waiverAt(p, lines, f, decl.Pos()); ok {
		return rest, true
	}
	return "", false
}

// poolTypeKey returns the "pkgpath.TypeName" key of a pointer-to-named
// type, the unit poollife tracks pooled objects by.
func poolTypeKey(t types.Type) (string, bool) {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name(), true
}

// annotatePoolNode records //tilesim:pool and //tilesim:release
// annotations on a function declaration's graph node, resolving the
// pooled type they govern. Called from buildGraph's declaration sweep.
func annotatePoolNode(p *pass, f *ast.File, decl *ast.FuncDecl, node *graphNode) {
	if _, ok := declAnnotation(p, p.poolacq, f, decl); ok {
		node.poolAcquire = true
		if fn, ok := p.pkg.Info.Defs[decl.Name].(*types.Func); ok {
			results := fn.Type().(*types.Signature).Results()
			for i := 0; i < results.Len(); i++ {
				if key, ok := poolTypeKey(results.At(i).Type()); ok {
					node.poolType = key
					break
				}
			}
		}
	}
	if rest, ok := declAnnotation(p, p.poolrel, f, decl); ok {
		node.poolRelease = true
		if rest != "" {
			node.poolByType = true
			if tn, ok := p.pkg.Pkg.Scope().Lookup(rest).(*types.TypeName); ok {
				if key, ok := poolTypeKey(types.NewPointer(tn.Type())); ok {
					node.poolType = key
				}
			} else if fn, ok := p.pkg.Info.Defs[decl.Name].(*types.Func); ok {
				// A foreign pooled type (a wrapper releasing another
				// package's pool, like freeEntry over cache.MSHREntry)
				// resolves through the function's own parameter types.
				params := fn.Type().(*types.Signature).Params()
				for i := 0; i < params.Len(); i++ {
					if key, ok := poolTypeKey(params.At(i).Type()); ok && strings.HasSuffix(key, "."+rest) {
						node.poolType = key
						break
					}
				}
			}
		}
	}
}

// checkPoolLife runs the pooled-object lifetime analysis over every
// loaded package. Module-wide: the pool API and the pooled-type set are
// collected from the reference graph's annotated declarations, so a
// package releasing another package's pooled objects resolves through
// the same cross-package node IDs every other graph rule uses.
func checkPoolLife(passes []*pass, g *graph) {
	pooled := make(map[string]bool)
	// registry holds the pooled types whose pool retains every live
	// object in a by-key structure (the ones released by type, the
	// MSHR.Free shape): their acquire results carry no caller-side
	// release obligation, because the pool itself can always reach the
	// object again.
	registry := make(map[string]bool)
	for _, id := range g.sortedNodeIDs() {
		node := g.nodes[id]
		if node.decl == nil {
			continue
		}
		if node.poolAcquire {
			if node.poolType == "" {
				node.p.reportf("poollife", node.pos,
					"//%s function %s must return a pointer to a named type", PoolAnnotation, node.name)
			} else {
				pooled[node.poolType] = true
			}
		}
		if node.poolRelease && node.poolByType {
			if node.poolType == "" {
				node.p.reportf("poollife", node.pos,
					"//%s on %s names a type not declared in its package", ReleaseAnnotation, node.name)
			} else {
				pooled[node.poolType] = true
				registry[node.poolType] = true
			}
		}
	}

	for _, p := range passes {
		for _, f := range p.pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				s := &poolScan{
					p:        p,
					g:        g,
					pooled:   pooled,
					registry: registry,
					exempt:   exemptKeys(p, g, fd, pooled),
					acquired: make(map[types.Object]token.Pos),
					resolved: make(map[types.Object]bool),
					reported: make(map[string]bool),
				}
				s.run(fd)
			}
		}
	}
}

// exemptKeys returns the pooled-type keys a function body is exempt
// for: an annotated acquire or release function may touch its own
// pool's objects around the logical acquire/release point (freelist
// links, reset stores), but stays checked for every other pooled type.
func exemptKeys(p *pass, g *graph, fd *ast.FuncDecl, pooled map[string]bool) map[string]bool {
	fn, ok := p.pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	node := g.nodes[fn.FullName()]
	if node == nil || (!node.poolAcquire && !node.poolRelease) {
		return nil
	}
	exempt := make(map[string]bool)
	if node.poolType != "" {
		exempt[node.poolType] = true
	}
	// Argument-based releases: exempt the pooled types of the
	// parameters (Pool.Put touches m's freelist link after the logical
	// release).
	sig := fn.Type().(*types.Signature)
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if key, ok := poolTypeKey(params.At(i).Type()); ok && pooled[key] {
			exempt[key] = true
		}
	}
	return exempt
}

// poolVarState is the per-variable lattice element: two independent
// may-bits over the paths reaching the current program point.
type poolVarState struct {
	// mayReleased: some path already released the pointer.
	mayReleased bool
	// mayUnacquired: some path reaches here without the pointer ever
	// having been acquired (declared nil, or acquired in only one
	// branch) — the release-point dominance bit.
	mayUnacquired bool
	// releaseLine locates the earlier release for diagnostics.
	releaseLine int
}

// poolEnv maps tracked pooled locals to their lattice state along the
// current path.
type poolEnv map[types.Object]poolVarState

func cloneEnv(env poolEnv) poolEnv {
	out := make(poolEnv, len(env))
	for obj, st := range env { //tilesim:ordered — map copy, no iteration output
		out[obj] = st
	}
	return out
}

// mergeInto joins b into a at a control-flow merge point: may-bits OR,
// and a variable tracked on only one side is may-unacquired on the
// join.
func mergeInto(a, b poolEnv) {
	for obj, bs := range b { //tilesim:ordered — commutative lattice join, no iteration output
		as, ok := a[obj]
		if !ok {
			bs.mayUnacquired = true
			a[obj] = bs
			continue
		}
		as.mayReleased = as.mayReleased || bs.mayReleased
		as.mayUnacquired = as.mayUnacquired || bs.mayUnacquired
		if as.releaseLine == 0 {
			as.releaseLine = bs.releaseLine
		}
		a[obj] = as
	}
	for obj, as := range a { //tilesim:ordered — commutative lattice join, no iteration output
		if _, ok := b[obj]; !ok {
			as.mayUnacquired = true
			a[obj] = as
		}
	}
}

func replaceEnv(dst, src poolEnv) {
	for obj := range dst { //tilesim:ordered — map clear, no iteration output
		delete(dst, obj)
	}
	for obj, st := range src { //tilesim:ordered — map copy, no iteration output
		dst[obj] = st
	}
}

// poolScan walks one function body.
type poolScan struct {
	p        *pass
	g        *graph
	pooled   map[string]bool
	registry map[string]bool
	exempt   map[string]bool
	// acquired records locally acquired objects and their acquire
	// positions; resolved records the ones some path releases, hands
	// off, returns, or retains. The difference is the leak findings.
	acquired map[types.Object]token.Pos
	resolved map[types.Object]bool
	reported map[string]bool
}

// trackable reports whether an object is a pooled pointer this body
// tracks (pooled type, not exempt here).
func (s *poolScan) trackable(obj types.Object) bool {
	if obj == nil {
		return false
	}
	key, ok := poolTypeKey(obj.Type())
	if !ok {
		return false
	}
	return s.pooled[key] && !s.exempt[key]
}

func (s *poolScan) objectOf(id *ast.Ident) types.Object {
	if obj := s.p.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return s.p.pkg.Info.Defs[id]
}

func (s *poolScan) run(fd *ast.FuncDecl) {
	env := make(poolEnv)
	if fd.Recv != nil {
		s.bindParams(fd.Recv, env)
	}
	s.bindParams(fd.Type.Params, env)
	s.stmt(fd.Body, env)

	// Leak findings: locally acquired, never released / handed off /
	// returned / retained anywhere in the body.
	type leak struct {
		obj types.Object
		pos token.Pos
	}
	var leaks []leak
	for obj, pos := range s.acquired { //tilesim:ordered — leaks are sorted by position below
		if !s.resolved[obj] {
			leaks = append(leaks, leak{obj, pos})
		}
	}
	//tilesim:totalorder distinct acquire statements have distinct positions, so pos never ties
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
	for _, l := range leaks {
		s.reportOnce(l.pos,
			"pooled object %s acquired here is never released, handed off, or retained on any path; the header leaks from its pool",
			l.obj.Name())
	}
}

func (s *poolScan) bindParams(fields *ast.FieldList, env poolEnv) {
	if fields == nil {
		return
	}
	for _, field := range fields.List {
		for _, name := range field.Names {
			if obj := s.p.pkg.Info.Defs[name]; s.trackable(obj) {
				env[obj] = poolVarState{}
			}
		}
	}
}

// stmt interprets one statement against env, returning true when the
// statement terminates the path (return, panic-like branch exits are
// approximated conservatively).
func (s *poolScan) stmt(st ast.Stmt, env poolEnv) bool {
	switch st := st.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		for _, inner := range st.List {
			if s.stmt(inner, env) {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		s.stmt(st.Init, env)
		s.expr(st.Cond, env)
		thenEnv := cloneEnv(env)
		thenTerm := s.stmt(st.Body, thenEnv)
		elseEnv := cloneEnv(env)
		elseTerm := false
		if st.Else != nil {
			elseTerm = s.stmt(st.Else, elseEnv)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replaceEnv(env, elseEnv)
		case elseTerm:
			replaceEnv(env, thenEnv)
		default:
			mergeInto(thenEnv, elseEnv)
			replaceEnv(env, thenEnv)
		}
		return false
	case *ast.ForStmt:
		s.stmt(st.Init, env)
		s.expr(st.Cond, env)
		// Two rounds reach the fixpoint of the two-level lattice: the
		// second round sees the first round's merged exit state, so a
		// release in iteration i is visible to a use in iteration i+1.
		for round := 0; round < 2; round++ {
			bodyEnv := cloneEnv(env)
			term := s.stmt(st.Body, bodyEnv)
			if !term {
				s.stmt(st.Post, bodyEnv)
				mergeInto(env, bodyEnv)
			}
		}
		return false
	case *ast.RangeStmt:
		s.expr(st.X, env)
		for round := 0; round < 2; round++ {
			bodyEnv := cloneEnv(env)
			s.bindRangeVar(st.Key, bodyEnv)
			s.bindRangeVar(st.Value, bodyEnv)
			if !s.stmt(st.Body, bodyEnv) {
				mergeInto(env, bodyEnv)
			}
		}
		return false
	case *ast.SwitchStmt:
		s.stmt(st.Init, env)
		s.expr(st.Tag, env)
		return s.caseClauses(st.Body, env, nil)
	case *ast.TypeSwitchStmt:
		s.stmt(st.Init, env)
		return s.caseClauses(st.Body, env, st.Assign)
	case *ast.SelectStmt:
		return s.commClauses(st.Body, env)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			if id, ok := r.(*ast.Ident); ok {
				if obj := s.objectOf(id); s.trackable(obj) {
					s.resolved[obj] = true
				}
			}
			s.expr(r, env)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto/fallthrough leave the linear path;
		// treating them as terminators never invents a path that does
		// not exist (it only under-approximates loop re-entry).
		return true
	case *ast.LabeledStmt:
		return s.stmt(st.Stmt, env)
	case *ast.ExprStmt:
		s.expr(st.X, env)
		return false
	case *ast.AssignStmt:
		s.assign(st, env)
		return false
	case *ast.IncDecStmt:
		s.expr(st.X, env)
		return false
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				s.expr(v, env)
			}
			for i, name := range vs.Names {
				obj := s.p.pkg.Info.Defs[name]
				if !s.trackable(obj) {
					continue
				}
				if i < len(vs.Values) {
					s.bindValue(obj, vs.Values[i], env)
				} else {
					// var m *Message — declared, not acquired.
					env[obj] = poolVarState{mayUnacquired: true}
				}
			}
		}
		return false
	case *ast.DeferStmt:
		s.deferredCall(st.Call, env)
		return false
	case *ast.GoStmt:
		s.deferredCall(st.Call, env)
		return false
	case *ast.SendStmt:
		s.expr(st.Chan, env)
		if id, ok := st.Value.(*ast.Ident); ok {
			if obj := s.objectOf(id); s.trackable(obj) {
				if _, tracked := env[obj]; tracked {
					s.escape(obj, st.Arrow, "a channel")
					s.expr(st.Value, env)
					return false
				}
			}
		}
		s.expr(st.Value, env)
		return false
	case *ast.EmptyStmt:
		return false
	default:
		return false
	}
}

func (s *poolScan) bindRangeVar(e ast.Expr, env poolEnv) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	if obj := s.p.pkg.Info.Defs[id]; s.trackable(obj) {
		env[obj] = poolVarState{}
	}
}

// caseClauses interprets a switch body: each clause starts from a clone
// of the entry environment; the exit state is the join of every
// non-terminating clause (plus the fall-past path when no default
// exists).
func (s *poolScan) caseClauses(body *ast.BlockStmt, env poolEnv, assign ast.Stmt) bool {
	var exits []poolEnv
	hasDefault := false
	for _, c := range body.List {
		clause, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		cenv := cloneEnv(env)
		for _, e := range clause.List {
			s.expr(e, cenv)
		}
		s.stmt(assign, cenv)
		term := false
		for _, inner := range clause.Body {
			if s.stmt(inner, cenv) {
				term = true
				break
			}
		}
		if !term {
			exits = append(exits, cenv)
		}
	}
	if !hasDefault {
		exits = append(exits, cloneEnv(env))
	}
	if len(exits) == 0 {
		return true
	}
	merged := exits[0]
	for _, e := range exits[1:] {
		mergeInto(merged, e)
	}
	replaceEnv(env, merged)
	return false
}

func (s *poolScan) commClauses(body *ast.BlockStmt, env poolEnv) bool {
	var exits []poolEnv
	hasDefault := false
	for _, c := range body.List {
		clause, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if clause.Comm == nil {
			hasDefault = true
		}
		cenv := cloneEnv(env)
		s.stmt(clause.Comm, cenv)
		term := false
		for _, inner := range clause.Body {
			if s.stmt(inner, cenv) {
				term = true
				break
			}
		}
		if !term {
			exits = append(exits, cenv)
		}
	}
	if !hasDefault {
		exits = append(exits, cloneEnv(env))
	}
	if len(exits) == 0 {
		return true
	}
	merged := exits[0]
	for _, e := range exits[1:] {
		mergeInto(merged, e)
	}
	replaceEnv(env, merged)
	return false
}

// assign interprets one assignment: escapes (pooled RHS into a field,
// container, or fresh acquire into a field), state transfer (alias
// copies), and (re)binding of pooled locals.
func (s *poolScan) assign(st *ast.AssignStmt, env poolEnv) {
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		// Compound assignment (+= etc.): reads and writes, no
		// lifetime transitions.
		for _, e := range st.Rhs {
			s.expr(e, env)
		}
		for _, e := range st.Lhs {
			s.expr(e, env)
		}
		return
	}
	if len(st.Lhs) != len(st.Rhs) {
		// Tuple form: x, ok := m[k] / f(). Evaluate the source, bind
		// pooled LHS idents as live (tuple sources are lookups, not
		// acquire calls).
		for _, e := range st.Rhs {
			s.expr(e, env)
		}
		for _, lhs := range st.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				s.expr(lhs, env)
				continue
			}
			if id.Name == "_" {
				continue
			}
			if obj := s.objectOf(id); s.trackable(obj) {
				env[obj] = poolVarState{}
			}
		}
		return
	}
	for i, lhs := range st.Lhs {
		rhs := st.Rhs[i]
		rhsID, _ := rhs.(*ast.Ident)
		var rhsObj types.Object
		if rhsID != nil {
			if obj := s.objectOf(rhsID); s.trackable(obj) {
				if _, tracked := env[obj]; tracked {
					rhsObj = obj
				}
			}
		}
		switch lhs := lhs.(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				s.expr(rhs, env)
				continue
			}
			lhsObj := s.objectOf(lhs)
			if rhsObj != nil {
				// Alias copy: the state (and the release obligation)
				// moves with the value.
				s.useCheck(rhsID, env)
				if s.trackable(lhsObj) {
					env[lhsObj] = env[rhsObj]
					s.resolved[rhsObj] = true
				}
				continue
			}
			s.expr(rhs, env)
			if s.trackable(lhsObj) {
				s.bindValue(lhsObj, rhs, env)
			}
		default:
			// Store into a field, slice, map, or dereference.
			if rhsObj != nil {
				s.useCheck(rhsID, env)
				s.escape(rhsObj, st.TokPos, escapeTarget(lhs))
			} else {
				s.expr(rhs, env)
				if call, ok := unparen(rhs).(*ast.CallExpr); ok {
					if node := s.calleeNode(call); node != nil && node.poolAcquire &&
						!s.exempt[node.poolType] && s.pooled[node.poolType] && !s.registry[node.poolType] {
						s.reportOnce(st.TokPos,
							"pooled object acquired from %s immediately escapes into %s; a pooled pointer must not outlive the call that holds it",
							node.name, escapeTarget(lhs))
					}
				}
			}
			s.expr(lhs, env)
		}
	}
}

// bindValue sets a tracked local's state from its (non-alias) source
// expression: an acquire call starts a fresh live lifetime with a
// release obligation, nil resets to unacquired, anything else (lookup,
// field read, fresh composite) is live without an obligation.
func (s *poolScan) bindValue(obj types.Object, rhs ast.Expr, env poolEnv) {
	rhs = unparen(rhs)
	if id, ok := rhs.(*ast.Ident); ok && id.Name == "nil" {
		env[obj] = poolVarState{mayUnacquired: true}
		return
	}
	env[obj] = poolVarState{}
	if call, ok := rhs.(*ast.CallExpr); ok {
		// Registry-pool results carry no caller-side obligation: the
		// pool retains the object in its by-key structure.
		if node := s.calleeNode(call); node != nil && node.poolAcquire && !s.registry[node.poolType] {
			s.acquired[obj] = rhs.Pos()
		}
	}
}

// expr interprets one expression for uses, escapes, and pool-API calls.
func (s *poolScan) expr(e ast.Expr, env poolEnv) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		s.useCheck(e, env)
	case *ast.CallExpr:
		s.call(e, env)
	case *ast.FuncLit:
		s.capture(e, env, "a closure")
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				s.expr(kv.Key, env)
				val = kv.Value
			}
			if id, ok := val.(*ast.Ident); ok {
				if obj := s.objectOf(id); s.trackable(obj) {
					if _, tracked := env[obj]; tracked {
						s.useCheck(id, env)
						s.escape(obj, id.Pos(), "a composite literal")
						continue
					}
				}
			}
			s.expr(val, env)
		}
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if sel, ok := s.p.pkg.Info.Selections[e]; ok {
				if obj := s.objectOf(id); s.trackable(obj) {
					if _, tracked := env[obj]; tracked {
						switch {
						case sel.Kind() == types.MethodVal:
							// A method value on a tracked pooled local
							// captures the pointer like a closure would.
							s.useCheck(id, env)
							s.escape(obj, e.Pos(), "a method value")
							return
						case sel.Kind() == types.FieldVal && isFuncField(sel):
							// Reading a func-valued field (a prebound
							// continuation like transit.deliverFn) hands
							// the object off: the closure bound at
							// acquire time carries it.
							s.useCheck(id, env)
							s.resolved[obj] = true
							return
						}
					}
				}
			}
		}
		s.expr(e.X, env)
	case *ast.StarExpr:
		s.expr(e.X, env)
	case *ast.ParenExpr:
		s.expr(e.X, env)
	case *ast.UnaryExpr:
		s.expr(e.X, env)
	case *ast.BinaryExpr:
		s.expr(e.X, env)
		s.expr(e.Y, env)
	case *ast.IndexExpr:
		s.expr(e.X, env)
		s.expr(e.Index, env)
	case *ast.IndexListExpr:
		s.expr(e.X, env)
	case *ast.SliceExpr:
		s.expr(e.X, env)
		s.expr(e.Low, env)
		s.expr(e.High, env)
		s.expr(e.Max, env)
	case *ast.TypeAssertExpr:
		s.expr(e.X, env)
	case *ast.KeyValueExpr:
		s.expr(e.Key, env)
		s.expr(e.Value, env)
	}
}

// useCheck flags a read or write of a pooled local on a path where it
// may already have been released.
func (s *poolScan) useCheck(id *ast.Ident, env poolEnv) {
	obj := s.objectOf(id)
	if obj == nil {
		return
	}
	st, tracked := env[obj]
	if tracked && st.mayReleased {
		s.reportOnce(id.Pos(),
			"use of pooled %s after release (released at line %d); extract what the code needs before the release",
			obj.Name(), st.releaseLine)
	}
}

// calleeNode resolves a call to the graph node of its static callee,
// or nil (builtins, function values, interface methods).
func (s *poolScan) calleeNode(call *ast.CallExpr) *graphNode {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = s.p.pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = s.p.pkg.Info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return s.g.nodes[fn.FullName()]
}

// call interprets one call: pool releases transition state, every
// other call hands tracked arguments off, closures and sim.Event
// payloads are capture-checked.
func (s *poolScan) call(call *ast.CallExpr, env poolEnv) {
	// Receiver/base of the callee is an ordinary use.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		s.expr(sel.X, env)
	}

	if id, ok := unparen(call.Fun).(*ast.Ident); ok && isBuiltin(s.p, id) && id.Name == "append" {
		if len(call.Args) > 0 {
			s.expr(call.Args[0], env)
		}
		for _, arg := range call.Args[1:] {
			if aid, ok := arg.(*ast.Ident); ok {
				if obj := s.objectOf(aid); s.trackable(obj) {
					if _, tracked := env[obj]; tracked {
						s.useCheck(aid, env)
						s.escape(obj, aid.Pos(), "a slice via append")
						continue
					}
				}
			}
			s.expr(arg, env)
		}
		return
	}

	node := s.calleeNode(call)
	eventPayload := s.isEventCall(call)
	if node != nil && node.poolRelease {
		if node.poolByType {
			if node.poolType != "" && !s.exempt[node.poolType] {
				// By-key release (MSHR.Free shape): every live local
				// of the pooled type is released here — including any
				// passed as an argument, so the sweep subsumes them.
				line := s.p.fset.Position(call.Pos()).Line
				var objs []types.Object
				for obj := range env { //tilesim:ordered — released objects are sorted by position below
					if key, ok := poolTypeKey(obj.Type()); ok && key == node.poolType {
						objs = append(objs, obj)
					}
				}
				//tilesim:totalorder distinct declarations have distinct positions, so Pos never ties
				sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
				for _, obj := range objs {
					st := env[obj]
					if st.mayReleased {
						s.reportOnce(call.Pos(),
							"double release of pooled %s (already released at line %d); a second release corrupts the freelist",
							obj.Name(), st.releaseLine)
					}
					env[obj] = poolVarState{mayReleased: true, releaseLine: line}
					s.resolved[obj] = true
				}
			}
			for _, arg := range call.Args {
				if id, ok := unparen(arg).(*ast.Ident); ok {
					if obj := s.objectOf(id); obj != nil {
						if key, ok := poolTypeKey(obj.Type()); ok && key == node.poolType {
							continue // released by the sweep above
						}
					}
				}
				s.expr(arg, env)
			}
			return
		}
		for _, arg := range call.Args {
			s.releaseArg(call, arg, env)
		}
		return
	}

	for _, arg := range call.Args {
		switch arg := arg.(type) {
		case *ast.Ident:
			if obj := s.objectOf(arg); s.trackable(obj) {
				if _, tracked := env[obj]; tracked {
					s.useCheck(arg, env)
					// Hand-off: the callee takes over the lifetime.
					s.resolved[obj] = true
					continue
				}
			}
			s.expr(arg, env)
		case *ast.FuncLit:
			target := "a closure"
			if eventPayload {
				target = "a sim.Event payload"
			}
			s.capture(arg, env, target)
		default:
			s.expr(arg, env)
		}
	}
}

// releaseArg applies an argument-based release to one call argument.
func (s *poolScan) releaseArg(call *ast.CallExpr, arg ast.Expr, env poolEnv) {
	id, ok := unparen(arg).(*ast.Ident)
	if !ok {
		s.expr(arg, env)
		return
	}
	obj := s.objectOf(id)
	if !s.trackable(obj) {
		s.expr(arg, env)
		return
	}
	st, tracked := env[obj]
	if !tracked {
		return
	}
	line := s.p.fset.Position(call.Pos()).Line
	if st.mayReleased {
		s.reportOnce(id.Pos(),
			"double release of pooled %s (already released at line %d); a second release corrupts the freelist",
			obj.Name(), st.releaseLine)
	} else if st.mayUnacquired {
		s.reportOnce(id.Pos(),
			"release of %s is not dominated by an acquire: on some path into this release it was never taken from its pool",
			obj.Name())
	}
	env[obj] = poolVarState{mayReleased: true, releaseLine: line}
	s.resolved[obj] = true
}

// deferredCall handles defer/go: the call runs later, so tracked
// arguments are hand-offs (and releases resolve the leak obligation)
// without transitioning path state, and closures capture.
func (s *poolScan) deferredCall(call *ast.CallExpr, env poolEnv) {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		s.expr(sel.X, env)
	}
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		s.capture(lit, env, "a closure")
	}
	for _, arg := range call.Args {
		switch arg := arg.(type) {
		case *ast.Ident:
			if obj := s.objectOf(arg); s.trackable(obj) {
				if _, tracked := env[obj]; tracked {
					s.useCheck(arg, env)
					s.resolved[obj] = true
					continue
				}
			}
			s.expr(arg, env)
		case *ast.FuncLit:
			s.capture(arg, env, "a closure")
		default:
			s.expr(arg, env)
		}
	}
}

// isEventCall reports whether the call schedules onto the simulation
// kernel (a sim package function or method): a closure passed there is
// an event payload, the escape flavour whose lifetime is hardest to
// see at the callsite.
func (s *poolScan) isEventCall(call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = s.p.pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = s.p.pkg.Info.Uses[fun.Sel]
	default:
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(fn.Pkg().Path(), "internal/sim")
}

// capture flags every tracked pooled local a function literal closes
// over: the closure outlives the statement, so the capture is a
// retention edge exactly like a field store.
func (s *poolScan) capture(lit *ast.FuncLit, env poolEnv, target string) {
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := s.p.pkg.Info.Uses[id]
		if obj == nil || seen[obj] {
			return true
		}
		if _, tracked := env[obj]; !tracked || !s.trackable(obj) {
			return true
		}
		seen[obj] = true
		s.escape(obj, lit.Pos(), target)
		return true
	})
}

// escape reports one retention edge of a tracked pooled local.
func (s *poolScan) escape(obj types.Object, pos token.Pos, target string) {
	s.resolved[obj] = true
	s.reportOnce(pos,
		"pooled %s escapes into %s; a pooled pointer must not outlive the call that holds it",
		obj.Name(), target)
}

// isFuncField reports whether a field selection yields a function
// value (the prebound-continuation idiom).
func isFuncField(sel *types.Selection) bool {
	_, ok := sel.Type().Underlying().(*types.Signature)
	return ok
}

// escapeTarget names the LHS flavour of a store escape.
func escapeTarget(lhs ast.Expr) string {
	switch lhs.(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		return "a map or slice element"
	case *ast.StarExpr:
		return "a pointed-to location"
	}
	return "a stored location"
}

func (s *poolScan) reportOnce(pos token.Pos, format string, args ...any) {
	key := fmt.Sprintf("%d|%s", pos, fmt.Sprintf(format, args...))
	if s.reported[key] {
		return
	}
	s.reported[key] = true
	s.p.reportf("poollife", pos, format, args...)
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isBuiltin reports whether ident refers to a Go builtin (go/types
// records builtin uses as *types.Builtin; a nil object also means no
// ordinary declaration shadows the name).
func isBuiltin(p *pass, ident *ast.Ident) bool {
	obj := p.pkg.Info.Uses[ident]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}
