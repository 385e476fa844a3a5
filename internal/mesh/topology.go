// Package mesh implements the switched direct network of the tiled
// CMP: a Topology value (dense 2D mesh, concentrated mesh, torus, or a
// Slim-NoC-style low-diameter network), deterministic minimal routing,
// a multi-cycle router pipeline per hop, and per-link physical
// channels (wire planes) with wormhole serialization and FCFS
// occupancy-based contention.
//
// The timing model is flit-level wormhole switching with unbounded router
// buffers: the head flit of a message waits for the output channel to
// drain the previous message's tail (nextFree), then streams its flits
// one per cycle; the tail trails the head by flits-1 cycles along the
// whole path. This captures the serialization, queueing and wire-latency
// effects the paper's proposal acts on, without modeling virtual-channel
// credit loops (see DESIGN.md §5 and §14).
package mesh

import (
	"fmt"
	"slices"
)

// TopologyNames lists the topology kinds NewTopology builds, in
// flag-help order.
var TopologyNames = []string{"mesh", "cmesh", "torus", "slim"}

// Link is one directed channel between two adjacent routers. Links()
// enumerates them in canonical order: ascending (From, To).
type Link struct{ From, To int }

// Topology is the interconnect graph: a kind from TopologyNames, a
// W x H router grid and the tiles attached to each router. It is a
// comparable value and every method is pure, which is what lets
// same-seed runs stay byte-identical (DESIGN.md §14). The zero value
// is no topology; NewTopology builds the valid ones.
//
// Router y*W+x sits at column x of row y, and routes are XY dimension
// order: a route (AppendRoute) steps the column to the destination's,
// then the row, one Step at a time. A step depends only on the two
// coordinates on its axis, never on the other axis or on the source.
// That property is what lets the network route each hop from per-axis
// step tables and per-router link tables instead of storing a route
// per router pair (DESIGN.md §16.9).
type Topology struct {
	name       string
	w, h, conc int
}

// NewTopology returns the topology name on a w x h router grid with
// conc tiles per router, or an error for a shape the network cannot
// build: an unknown name, fewer than 2 routers (or more than
// maxRouters), a cmesh with fewer than 2 tiles per router or another
// kind with more than 1, a torus axis shorter than 3 (its wrap link
// would duplicate the mesh link between the same pair), or a slim axis
// shorter than 2 or longer than 256 (a router's ports on an axis are
// numbered in one byte). The messages carry no package prefix; callers
// wrap them.
func NewTopology(name string, w, h, conc int) (Topology, error) {
	switch {
	case !slices.Contains(TopologyNames, name):
		return Topology{}, fmt.Errorf("unknown topology %q (valid: %v)", name, TopologyNames)
	case min(w, h) < 1 || max(w, h) > maxRouters || w*h < 2 || w*h > maxRouters:
		return Topology{}, fmt.Errorf("%s needs 2..%d routers with positive dimensions, got %dx%d", name, maxRouters, w, h)
	case name == "cmesh" && conc < 2:
		return Topology{}, fmt.Errorf("cmesh needs at least 2 tiles per router, got %d (use a mesh for 1)", conc)
	case name != "cmesh" && conc != 1:
		return Topology{}, fmt.Errorf("%s attaches 1 tile per router, got %d (use a cmesh to share routers)", name, conc)
	case name == "torus" && (w < 3 || h < 3):
		return Topology{}, fmt.Errorf("torus needs both dimensions >= 3 (wrap links duplicate mesh links below that), got %dx%d", w, h)
	case name == "slim" && (min(w, h) < 2 || max(w, h) > maxAxisPorts+1):
		return Topology{}, fmt.Errorf("slim needs both dimensions in 2..%d (a 1-wide grid is a fully-connected row; use a mesh), got %dx%d", maxAxisPorts+1, w, h)
	}
	return Topology{name: name, w: w, h: h, conc: conc}, nil
}

// Name is the short topology identifier used in flags and canonical
// config encodings: one of TopologyNames.
func (t Topology) Name() string { return t.name }

// Label is a human-readable description: "mesh 4x4", or
// "cmesh 4x4x4" with the tiles per router.
func (t Topology) Label() string {
	if t.conc > 1 {
		return fmt.Sprintf("%s %dx%dx%d", t.name, t.w, t.h, t.conc)
	}
	return fmt.Sprintf("%s %dx%d", t.name, t.w, t.h)
}

// Tiles is the number of tiles (cores) attached to the network.
func (t Topology) Tiles() int { return t.w * t.h * t.conc }

// Nodes is the number of routers: Tiles, or Tiles/conc for a
// concentrated mesh.
func (t Topology) Nodes() int { return t.w * t.h }

// Width is the router grid's column count.
func (t Topology) Width() int { return t.w }

// Height is the router grid's row count.
func (t Topology) Height() int { return t.h }

// NodeOf maps a tile id to the router it attaches to. Consecutive
// tiles share a cmesh router, whose local crossbar the network models
// as a single router traversal: same-router pairs cross no link.
func (t Topology) NodeOf(tile int) int { return tile / t.conc }

// Step is the route rule: the coordinate after from on the way to to
// (from != to) along an axis of n routers. Each step crosses one link,
// and a route of Steps is minimal. A mesh or cmesh moves one unit
// toward to. A torus moves one unit the shorter way around the ring
// and, on a tie (to exactly n/2 away), deterministically forward. A
// slim jumps straight to to: the flattened butterfly links every
// router on an axis to every other.
func (t Topology) Step(from, to, n int) int {
	switch t.name {
	case "torus":
		if fwd := (to - from + n) % n; fwd > n-fwd {
			return (from - 1 + n) % n
		}
		return (from + 1) % n
	case "slim":
		return to
	}
	if from < to {
		return from + 1
	}
	return from - 1
}

// Hops returns the minimal hop count between routers, equal to the
// number of ids AppendRoute appends, from a closed form per axis.
func (t Topology) Hops(src, dst int) int {
	return t.axisHops(src%t.w, dst%t.w, t.w) + t.axisHops(src/t.w, dst/t.w, t.h)
}

// axisHops is the number of Steps from a to b on an axis of n routers:
// their distance on a mesh or cmesh, the shorter way around on a
// torus, and 1 on a slim unless the two coincide.
func (t Topology) axisHops(a, b, n int) int {
	d := max(b-a, a-b)
	switch t.name {
	case "torus":
		return min(d, n-d)
	case "slim":
		return min(d, 1)
	}
	return d
}

// Links enumerates every directed link in canonical order, ascending
// (From, To): each router links to every router one Step away on its
// row or its column. Per-link channel state, per-link metrics and the
// static wire inventory all follow this order.
func (t Topology) Links() []Link {
	return t.links(t.axis(t.w).next, t.axis(t.h).next)
}

// links is Links from each axis's one-Step lists (axisTable.next).
func (t Topology) links(xs, ys [][]int) []Link {
	var ls []Link
	for from := range t.Nodes() {
		x, y := from%t.w, from/t.w
		column := func(rows []int) {
			for _, ny := range rows {
				ls = append(ls, Link{From: from, To: ny*t.w + x})
			}
		}
		// Ascending ids: the rows above on x's column, y's row, then
		// the rows below.
		above, _ := slices.BinarySearch(ys[y], y)
		column(ys[y][:above])
		for _, nx := range xs[x] {
			ls = append(ls, Link{From: from, To: y*t.w + nx})
		}
		column(ys[y][above:])
	}
	return ls
}

// axisTable is a topology's Step rule tabulated on an axis of n
// routers. next[c] lists the coordinates one Step from c, ascending,
// and the lists share one backing array. Entry from*n+to of steps is
// s<<8 | port: s is the coordinate after from on the way to to (from
// itself, port 0, when the two are equal), and port is s's index in
// next[from]. width is the most ports any coordinate has.
type axisTable struct {
	next  [][]int
	steps []int32
	width int32
}

// axis tabulates t's Step rule on an axis of n routers: n*(n-1) Step
// calls and no sort.
func (t Topology) axis(n int) axisTable {
	a := axisTable{next: make([][]int, n), steps: make([]int32, n*n)}
	reached := make([]bool, n)
	flat := make([]int, 0, n*n)
	for from := range n {
		row := a.steps[from*n:][:n]
		for to := range n {
			s := from
			if to != from {
				s = t.Step(from, to, n)
				reached[s] = true
			}
			row[to] = int32(s)
		}
		start := len(flat)
		for c, ok := range reached {
			if ok {
				flat = append(flat, c)
				reached[c] = false
			}
		}
		reach := flat[start:len(flat):len(flat)]
		if len(reach) > maxAxisPorts {
			panic(fmt.Sprintf("mesh: coordinate %d of a %d-router axis needs more than %d ports", from, n, maxAxisPorts))
		}
		a.next[from], a.width = reach, max(a.width, int32(len(reach)))
		for to, s := range row {
			port := 0
			if to != from {
				port, _ = slices.BinarySearch(reach, int(s))
			}
			row[to] = s<<8 | int32(port)
		}
	}
	return a
}

// AppendRoute appends t's route from router src to router dst to buf
// and returns the extended slice: the ordered intermediate and final
// router ids, excluding src, stepping the column with t.Step, then the
// row. It appends nothing when src == dst, and allocates only when buf
// lacks the capacity. The network routes by tables built from the same
// Step rule; AppendRoute is the route written out, for tests and tools.
func AppendRoute(t Topology, buf []int, src, dst int) []int {
	w, h := t.Width(), t.Height()
	x, y, dx, dy := src%w, src/w, dst%w, dst/w
	for x != dx {
		x = t.Step(x, dx, w)
		buf = append(buf, y*w+x)
	}
	for y != dy {
		y = t.Step(y, dy, h)
		buf = append(buf, y*w+x)
	}
	return buf
}

// AvgHops returns the average minimal router hop count over all ordered
// pairs of distinct tiles (useful for analytical cross-checks and the
// scale study's ED²P-vs-hops axis). Tile pairs sharing a router count
// zero hops — a concentrated mesh's local crossbar crosses no link.
func AvgHops(t Topology) float64 {
	n := t.Tiles()
	total := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				total += t.Hops(t.NodeOf(s), t.NodeOf(d))
			}
		}
	}
	return float64(total) / float64(n*(n-1))
}
