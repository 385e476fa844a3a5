package mesh

import (
	"math"
	"strings"
	"testing"

	"tilesim/internal/noc"
	"tilesim/internal/sim"
)

// mustPanic runs fn and returns the recovered panic message, failing
// the test if fn returns normally or panics with a non-string value.
func mustPanic(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected panic, got normal return")
			}
			s, ok := r.(string)
			if !ok {
				t.Fatalf("panic value %T (%v), want string", r, r)
			}
			msg = s
		}()
		fn()
	}()
	return msg
}

// TestPanicPaths drives every defensive panic in the mesh and checks
// both that it fires and that its message carries the "mesh: " prefix
// the simulator's panics use to name their subsystem.
func TestPanicPaths(t *testing.T) {
	newNet := func(cfg Config) *Network {
		return New(sim.NewKernel(), cfg, nil)
	}
	cases := []struct {
		name string
		want string // substring of the panic message
		fn   func()
	}{
		{
			name: "no topology",
			want: "no topology",
			fn: func() {
				cfg := mustLayout("baseline")
				cfg.Topo = Topology{}
				newNet(cfg)
			},
		},
		{
			name: "no bulk channel",
			want: "bulk channel",
			fn: func() {
				newNet(Config{Topo: paperMesh, RouterLatency: 2})
			},
		},
		{
			name: "zero router latency",
			want: "router latency",
			fn: func() {
				cfg := mustLayout("baseline")
				cfg.RouterLatency = 0
				newNet(cfg)
			},
		},
		{
			name: "NaN wire-latency scale",
			want: "wire-latency scale must be finite",
			fn: func() {
				cfg := mustLayout("baseline")
				cfg.LinkCyclesScale = math.NaN()
				newNet(cfg)
			},
		},
		{
			name: "wire latency past 2^62 cycles",
			want: "above 2^62 cycles",
			fn: func() {
				cfg := mustLayout("baseline")
				cfg.LinkCyclesScale = 1e20
				newNet(cfg)
			},
		},
		{
			name: "more than 255 ports on an axis",
			want: "more than 255 ports",
			fn: func() {
				// A 257-router slim row links every router to 256 others;
				// NewTopology refuses it, so build the value directly.
				slim := Topology{name: "slim", w: 257, h: 2, conc: 1}
				slim.axis(257)
			},
		},
		{
			name: "malformed message",
			want: "malformed",
			fn: func() {
				n := newNet(mustLayout("baseline"))
				n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 0, SizeBytes: 11})
			},
		},
		{
			name: "both VL and PW requested",
			want: "both VL and PW",
			fn: func() {
				n := newNet(mustLayout("baseline"))
				n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11, VL: true, PW: true})
			},
		},
		{
			name: "absent VL plane",
			want: "absent plane",
			fn: func() {
				n := newNet(mustLayout("baseline")) // baseline has no VL channel
				n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11, VL: true})
			},
		},
		{
			name: "zero-length route",
			want: "zero-length route",
			fn: func() {
				n := newNet(mustLayout("baseline"))
				// A self-message is rejected by Validate before routing;
				// the route guard is the backstop should the two ever
				// disagree. Exercise it directly.
				at := n.posOf(2)
				n.nextLink(at.x, at.y, at.x, at.y)
			},
		},
		{
			name: "transit recycled twice",
			want: "transit recycled twice",
			fn: func() {
				n := newNet(mustLayout("baseline"))
				m := noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11}
				tr := n.newTransit(&m, n.posOf(1), 0, 1, PlaneB, 0)
				n.recycle(tr)
				n.recycle(tr)
			},
		},
		{
			name: "missing handler",
			want: "no handler",
			fn: func() {
				k := sim.NewKernel()
				n := New(k, mustLayout("baseline"), nil)
				// No SetHandler calls: delivery must panic, not drop.
				n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11})
				k.Run(nil)
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			msg := mustPanic(t, c.fn)
			if !strings.HasPrefix(msg, "mesh: ") {
				t.Errorf("panic %q does not carry the \"mesh: \" prefix", msg)
			}
			if !strings.Contains(msg, c.want) {
				t.Errorf("panic %q does not mention %q", msg, c.want)
			}
		})
	}
}
