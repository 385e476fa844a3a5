//go:build pooldebug

package mesh

import (
	"strings"
	"testing"

	"tilesim/internal/noc"
	"tilesim/internal/pooldbg"
	"tilesim/internal/sim"
)

// TestDoubleRecyclePanicsUnderPooldebug injects a double release
// through the transit freelist's real hooks (not the pooldbg API
// directly). It compiles only under -tags pooldebug; in the default
// build the hooks are empty and a double recycle would silently
// corrupt the freelist, which is why the sanitizer build is a CI job.
func TestDoubleRecyclePanicsUnderPooldebug(t *testing.T) {
	pooldbg.Reset()
	n := New(sim.NewKernel(), DefaultBaseline(), nil)
	m := noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11}
	route, hops := n.routeOf(0, 1)
	tr := n.newTransit(&m, route, hops, 0, 1, PlaneB, 0)
	n.recycle(tr)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double recycle did not panic under -tags pooldebug")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value is %T, want string", r)
		}
		for _, want := range []string{
			"pooldbg: double release",
			"mesh.transit",
			"--- first release ---",
			"--- this release ---",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("double-recycle panic missing %q:\n%s", want, msg)
			}
		}
	}()
	n.recycle(tr)
}
