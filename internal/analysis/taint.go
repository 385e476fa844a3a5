package analysis

import "strings"

// checkTaint is the module-wide closure of the determinism rule: it
// flags internal/ functions from which a wall-clock read (time.Now,
// time.Since, time.Until) or a global math/rand draw is *transitively*
// reachable — through helper calls, through methods, and through
// function values stored in package-level variables. The per-callsite
// determinism check only sees the final reference; this pass makes the
// whole call chain visible, so a nondeterministic helper cannot hide
// behind layers of indirection.
//
// Approximation envelope (documented in DESIGN.md §12): edges follow
// every *reference* to a module function or package-level variable,
// whether it is a call or a stored value, so a function that merely
// stores a tainted helper is treated as reaching it (sound for
// reachability, possibly over-approximate for execution). Dynamic
// dispatch through interface methods and function values received as
// parameters is not resolved — a source smuggled through those is a
// known false negative; recursion cycles that reach a source only
// through the cycle are likewise not chased.
//
// Functions that reference a forbidden source directly are skipped
// here: the determinism analyzer already flags the exact callsite, and
// repeating it per caller would bury the primary finding.
func checkTaint(m *module, g *graph) {
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
		if node.decl == nil || !node.p.inInternal() || node.p.inCmd() {
			continue
		}
		if len(node.sources) > 0 {
			continue // the direct callsite is the determinism analyzer's finding
		}
		if chain := visit(id); chain != nil {
			node.p.reportf("taint", node.pos,
				"%s transitively reaches %s (%s); thread simulated time / a seeded *rand.Rand through instead",
				node.name, chain[len(chain)-1], strings.Join(chain, " -> "))
		}
	}
}
