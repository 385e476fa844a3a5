// Package mesh implements the switched direct network of the tiled
// CMP: a pluggable Topology (dense 2D mesh, concentrated mesh, torus,
// or a Slim-NoC-style low-diameter network), deterministic minimal
// routing, a multi-cycle router pipeline per hop, and per-link physical
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
	"sort"
)

// Coord is a router position in a topology's underlying grid.
type Coord struct{ X, Y int }

// Link is one directed channel between two adjacent routers. Links()
// enumerates them in canonical order: ascending (From, To).
type Link struct{ From, To int }

// Topology abstracts the interconnect graph: how many tiles attach to
// it, how tiles map onto routers, and how messages route between
// routers. All methods are pure and deterministic — the same receiver
// always returns the same values, in the same order — which is what
// lets routes be cached per (src,dst) router pair and lets same-seed
// runs stay byte-identical (DESIGN.md §14).
type Topology interface {
	// Name is the short topology identifier used in flags and canonical
	// config encodings ("mesh", "cmesh", "torus", "slim").
	Name() string
	// Label is a human-readable description ("mesh 4x4").
	Label() string
	// Tiles is the number of tiles (cores) attached to the network.
	Tiles() int
	// Nodes is the number of routers. Equal to Tiles for direct
	// topologies; Tiles/c for a concentrated mesh.
	Nodes() int
	// NodeOf maps a tile id to the router it attaches to.
	NodeOf(tile int) int
	// AppendRoute appends the deterministic minimal route from router
	// src to router dst to buf and returns the extended slice: the
	// ordered intermediate+final router ids, excluding src. It appends
	// nothing when src == dst, and allocates only when buf lacks the
	// capacity. Repeated calls append equal routes.
	AppendRoute(buf []int, src, dst int) []int
	// Hops returns the minimal hop count between routers, equal to the
	// number of ids AppendRoute appends.
	Hops(src, dst int) int
	// Neighbors returns the routers directly linked from a router, in
	// ascending id order.
	Neighbors(node int) []int
	// Links enumerates every directed link in canonical order:
	// ascending (From, To). Per-link channel state, per-link metrics
	// and the static wire inventory all follow this order.
	Links() []Link
}

// linksOf builds the canonical link enumeration from Neighbors: since
// Neighbors returns ascending ids and nodes are visited in ascending
// order, the result is sorted by (From, To).
func linksOf(t Topology) []Link {
	var ls []Link
	for from := 0; from < t.Nodes(); from++ {
		for _, to := range t.Neighbors(from) {
			ls = append(ls, Link{From: from, To: to})
		}
	}
	return ls
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

// grid is the shared W x H row-major router arithmetic of the concrete
// topologies. Its methods are promoted, so every grid-backed topology
// exposes CoordOf/IDOf for tests and tools.
type grid struct{ W, H int }

// Width returns the grid's router columns.
func (g grid) Width() int { return g.W }

// Height returns the grid's router rows.
func (g grid) Height() int { return g.H }

// CoordOf returns the position of router id.
func (g grid) CoordOf(id int) Coord {
	if id < 0 || id >= g.W*g.H {
		panic(fmt.Sprintf("mesh: router %d out of range for %dx%d grid", id, g.W, g.H))
	}
	return Coord{X: id % g.W, Y: id / g.W}
}

// IDOf returns the router id at a position.
func (g grid) IDOf(c Coord) int {
	if c.X < 0 || c.X >= g.W || c.Y < 0 || c.Y >= g.H {
		panic(fmt.Sprintf("mesh: coord %+v out of range for %dx%d grid", c, g.W, g.H))
	}
	return c.Y*g.W + c.X
}

// appendRouteXY is the shared XY dimension-order walk: resolve X
// fully, then Y, stepping one grid coordinate at a time and appending
// each router to buf. step picks the direction on an axis of the given
// size (and handles wrap for the torus); its choice is a pure function
// of (from, to, size), so the route is deterministic.
func (g grid) appendRouteXY(buf []int, src, dst int, step func(from, to, size int) int) []int {
	a, b := g.CoordOf(src), g.CoordOf(dst)
	for a.X != b.X {
		a.X = step(a.X, b.X, g.W)
		buf = append(buf, g.IDOf(a))
	}
	for a.Y != b.Y {
		a.Y = step(a.Y, b.Y, g.H)
		buf = append(buf, g.IDOf(a))
	}
	return buf
}

// meshStep moves one unit toward to on an unwrapped axis.
func meshStep(from, to, _ int) int {
	if from < to {
		return from + 1
	}
	return from - 1
}

// torusStep moves one unit toward to on a wrapped axis of size n,
// taking the shorter way around; on a tie (to is exactly n/2 away) it
// deterministically steps in the positive direction.
func torusStep(from, to, n int) int {
	fwd := (to - from + n) % n // steps going +1 with wrap
	if fwd <= n-fwd {
		return (from + 1) % n
	}
	return (from - 1 + n) % n
}

// wrapDist is the minimal wrapped distance between two coordinates on
// an axis of size n.
func wrapDist(a, b, n int) int {
	d := (b - a + n) % n
	if n-d < d {
		return n - d
	}
	return d
}

// Mesh is the dense W x H 2D mesh of the paper: one tile per router,
// XY dimension-order routing. Routes, link order and hop counts are
// byte-for-byte those of the pre-interface implementation, which is
// what keeps 4x4 results identical across the refactor.
type Mesh struct{ grid }

// NewMesh validates and builds a dense mesh. Any W x H with at least
// two routers is legal — including 1 x N and N x 1 degenerate rows,
// where XY routing collapses to one dimension. Config-level validation
// (with returned errors) lives in cmp.RunConfig; this panic guards
// direct programmatic misuse only.
func NewMesh(w, h int) Mesh {
	if w < 1 || h < 1 || w*h < 2 {
		panic(fmt.Sprintf("mesh: topology needs at least 2 routers with positive dimensions, got %dx%d", w, h))
	}
	return Mesh{grid{W: w, H: h}}
}

// Name implements Topology.
func (m Mesh) Name() string { return "mesh" }

// Label implements Topology.
func (m Mesh) Label() string { return fmt.Sprintf("mesh %dx%d", m.W, m.H) }

// Tiles implements Topology.
func (m Mesh) Tiles() int { return m.W * m.H }

// Nodes implements Topology.
func (m Mesh) Nodes() int { return m.W * m.H }

// NodeOf implements Topology: tiles map 1:1 onto routers.
func (m Mesh) NodeOf(tile int) int { return tile }

// Hops implements Topology: Manhattan distance.
func (m Mesh) Hops(src, dst int) int {
	a, b := m.CoordOf(src), m.CoordOf(dst)
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

// AppendRoute implements Topology: XY dimension-order routing.
func (m Mesh) AppendRoute(buf []int, src, dst int) []int {
	return m.appendRouteXY(buf, src, dst, meshStep)
}

// Neighbors implements Topology.
func (m Mesh) Neighbors(node int) []int {
	c := m.CoordOf(node)
	out := make([]int, 0, 4)
	// Ascending id order: y-1 row, x-1, x+1, y+1 row.
	if c.Y > 0 {
		out = append(out, node-m.W)
	}
	if c.X > 0 {
		out = append(out, node-1)
	}
	if c.X < m.W-1 {
		out = append(out, node+1)
	}
	if c.Y < m.H-1 {
		out = append(out, node+m.W)
	}
	return out
}

// Links implements Topology.
func (m Mesh) Links() []Link { return linksOf(m) }

// CMesh is a concentrated mesh: Conc tiles share each router through a
// local crossbar (TeraNoC-style hybrid), and the routers form a dense
// W x H XY-routed mesh. Tile t attaches to router t/Conc, so
// consecutive tiles cluster. Same-router tile pairs never cross a
// link: the network models their exchange as a single router traversal
// (pipeline plus tail serialization, no wire, no channel contention).
type CMesh struct {
	grid
	// Conc is the concentration factor (tiles per router).
	Conc int
}

// NewCMesh validates and builds a concentrated mesh of w x h routers
// with conc tiles per router.
func NewCMesh(w, h, conc int) CMesh {
	if w < 1 || h < 1 || w*h < 2 {
		panic(fmt.Sprintf("mesh: cmesh needs at least 2 routers with positive dimensions, got %dx%d", w, h))
	}
	if conc < 2 {
		panic(fmt.Sprintf("mesh: cmesh concentration must be >= 2, got %d (use a dense mesh for 1 tile per router)", conc))
	}
	return CMesh{grid: grid{W: w, H: h}, Conc: conc}
}

// Name implements Topology.
func (m CMesh) Name() string { return "cmesh" }

// Label implements Topology.
func (m CMesh) Label() string {
	return fmt.Sprintf("cmesh %dx%dx%d", m.W, m.H, m.Conc)
}

// Tiles implements Topology.
func (m CMesh) Tiles() int { return m.W * m.H * m.Conc }

// Nodes implements Topology.
func (m CMesh) Nodes() int { return m.W * m.H }

// NodeOf implements Topology: consecutive tiles share a router.
func (m CMesh) NodeOf(tile int) int { return tile / m.Conc }

// Hops implements Topology: Manhattan distance over the router grid.
func (m CMesh) Hops(src, dst int) int {
	a, b := m.CoordOf(src), m.CoordOf(dst)
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

// AppendRoute implements Topology: XY dimension-order routing over
// routers.
func (m CMesh) AppendRoute(buf []int, src, dst int) []int {
	return m.appendRouteXY(buf, src, dst, meshStep)
}

// Neighbors implements Topology.
func (m CMesh) Neighbors(node int) []int { return Mesh{m.grid}.Neighbors(node) }

// Links implements Topology.
func (m CMesh) Links() []Link { return linksOf(m) }

// Torus is a W x H 2D torus: a dense mesh with wraparound links on both
// axes, halving the average hop count at equal degree. Routing is
// dimension-order XY over the shorter way around each axis; when both
// directions are equidistant (the opposite coordinate on an even-sized
// axis) the route deterministically takes the positive direction, so
// repeated calls and repeated runs agree.
type Torus struct{ grid }

// NewTorus validates and builds a torus. Both dimensions must be at
// least 3: at 2 the wrap link would duplicate the mesh link between the
// same router pair, collapsing the directed-link enumeration.
func NewTorus(w, h int) Torus {
	if w < 3 || h < 3 {
		panic(fmt.Sprintf("mesh: torus needs both dimensions >= 3 (wrap links duplicate mesh links below that), got %dx%d", w, h))
	}
	return Torus{grid{W: w, H: h}}
}

// Name implements Topology.
func (t Torus) Name() string { return "torus" }

// Label implements Topology.
func (t Torus) Label() string { return fmt.Sprintf("torus %dx%d", t.W, t.H) }

// Tiles implements Topology.
func (t Torus) Tiles() int { return t.W * t.H }

// Nodes implements Topology.
func (t Torus) Nodes() int { return t.W * t.H }

// NodeOf implements Topology.
func (t Torus) NodeOf(tile int) int { return tile }

// Hops implements Topology: wrapped Manhattan distance.
func (t Torus) Hops(src, dst int) int {
	a, b := t.CoordOf(src), t.CoordOf(dst)
	return wrapDist(a.X, b.X, t.W) + wrapDist(a.Y, b.Y, t.H)
}

// AppendRoute implements Topology: XY dimension-order routing, shorter
// way around each axis, ties broken toward the positive direction.
func (t Torus) AppendRoute(buf []int, src, dst int) []int {
	return t.appendRouteXY(buf, src, dst, torusStep)
}

// Neighbors implements Topology.
func (t Torus) Neighbors(node int) []int {
	c := t.CoordOf(node)
	out := []int{
		t.IDOf(Coord{X: (c.X + 1) % t.W, Y: c.Y}),
		t.IDOf(Coord{X: (c.X - 1 + t.W) % t.W, Y: c.Y}),
		t.IDOf(Coord{X: c.X, Y: (c.Y + 1) % t.H}),
		t.IDOf(Coord{X: c.X, Y: (c.Y - 1 + t.H) % t.H}),
	}
	sort.Ints(out)
	return out
}

// Links implements Topology.
func (t Torus) Links() []Link { return linksOf(t) }

// Slim is a Slim-NoC-style low-diameter topology: a flattened
// butterfly over a W x H grid, where every router links directly to
// every other router in its row and in its column. Any route needs at
// most two hops (one row hop, one column hop), trading much higher
// router degree (W+H-2) for near-constant distance — the low-diameter
// end of the scale study's hop-count axis.
type Slim struct{ grid }

// NewSlim validates and builds a flattened-butterfly topology.
func NewSlim(w, h int) Slim {
	if w < 2 || h < 2 {
		panic(fmt.Sprintf("mesh: slim needs both dimensions >= 2 (a 1-wide grid is a fully-connected row; use a mesh), got %dx%d", w, h))
	}
	return Slim{grid{W: w, H: h}}
}

// Name implements Topology.
func (s Slim) Name() string { return "slim" }

// Label implements Topology.
func (s Slim) Label() string { return fmt.Sprintf("slim %dx%d", s.W, s.H) }

// Tiles implements Topology.
func (s Slim) Tiles() int { return s.W * s.H }

// Nodes implements Topology.
func (s Slim) Nodes() int { return s.W * s.H }

// NodeOf implements Topology.
func (s Slim) NodeOf(tile int) int { return tile }

// Hops implements Topology: one hop per differing dimension.
func (s Slim) Hops(src, dst int) int {
	a, b := s.CoordOf(src), s.CoordOf(dst)
	h := 0
	if a.X != b.X {
		h++
	}
	if a.Y != b.Y {
		h++
	}
	return h
}

// AppendRoute implements Topology: dimension-order — the single row
// hop to the destination column first, then the single column hop.
func (s Slim) AppendRoute(buf []int, src, dst int) []int {
	a, b := s.CoordOf(src), s.CoordOf(dst)
	if a.X != b.X {
		a.X = b.X
		buf = append(buf, s.IDOf(a))
	}
	if a.Y != b.Y {
		a.Y = b.Y
		buf = append(buf, s.IDOf(a))
	}
	return buf
}

// Neighbors implements Topology: the rest of the row and the column.
func (s Slim) Neighbors(node int) []int {
	c := s.CoordOf(node)
	out := make([]int, 0, s.W+s.H-2)
	for x := 0; x < s.W; x++ {
		if x != c.X {
			out = append(out, s.IDOf(Coord{X: x, Y: c.Y}))
		}
	}
	for y := 0; y < s.H; y++ {
		if y != c.Y {
			out = append(out, s.IDOf(Coord{X: c.X, Y: y}))
		}
	}
	sort.Ints(out)
	return out
}

// Links implements Topology.
func (s Slim) Links() []Link { return linksOf(s) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
