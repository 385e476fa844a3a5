package mesh

import (
	"reflect"
	"slices"
	"sort"
	"testing"
)

// topologies64 returns one 64-tile instance of every topology, the
// scale-study's smallest point and the size the byte-identity CI test
// runs at.
func topologies64() []Topology {
	return []Topology{
		NewMesh(8, 8),
		NewCMesh(4, 4, 4),
		NewTorus(8, 8),
		NewSlim(8, 8),
	}
}

// gridOf exposes the promoted grid arithmetic of each concrete
// topology for the round-trip property.
type gridded interface {
	CoordOf(id int) Coord
	IDOf(c Coord) int
}

func TestTopologyCoordRoundTripAll(t *testing.T) {
	for _, topo := range topologies64() {
		g, ok := topo.(gridded)
		if !ok {
			t.Fatalf("%s: not grid-backed", topo.Name())
		}
		for id := 0; id < topo.Nodes(); id++ {
			if got := g.IDOf(g.CoordOf(id)); got != id {
				t.Errorf("%s: router %d round-trips to %d", topo.Name(), id, got)
			}
		}
	}
}

func TestTopologyTileRouterMapping(t *testing.T) {
	for _, topo := range topologies64() {
		if topo.Tiles() != 64 {
			t.Fatalf("%s: tiles = %d, want 64", topo.Name(), topo.Tiles())
		}
		for tile := 0; tile < topo.Tiles(); tile++ {
			node := topo.NodeOf(tile)
			if node < 0 || node >= topo.Nodes() {
				t.Fatalf("%s: tile %d maps to out-of-range router %d", topo.Name(), tile, node)
			}
		}
	}
}

func TestTopologyHopsSymmetry(t *testing.T) {
	for _, topo := range topologies64() {
		for a := 0; a < topo.Nodes(); a++ {
			for b := 0; b < topo.Nodes(); b++ {
				if topo.Hops(a, b) != topo.Hops(b, a) {
					t.Fatalf("%s: Hops(%d,%d)=%d but Hops(%d,%d)=%d",
						topo.Name(), a, b, topo.Hops(a, b), b, a, topo.Hops(b, a))
				}
			}
		}
	}
}

// TestTopologyRoutesAreMinimal checks the triangle equality on minimal
// routes: every step of AppendRoute(src,dst) crosses exactly one link
// and decreases the remaining hop count by exactly one, so the route's
// length equals Hops(src,dst) with no detours.
func TestTopologyRoutesAreMinimal(t *testing.T) {
	for _, topo := range topologies64() {
		links := make(map[Link]bool, len(topo.Links()))
		for _, l := range topo.Links() {
			links[l] = true
		}
		for src := 0; src < topo.Nodes(); src++ {
			for dst := 0; dst < topo.Nodes(); dst++ {
				route := AppendRoute(topo, nil, src, dst)
				if len(route) != topo.Hops(src, dst) {
					t.Fatalf("%s: %d->%d route length %d != hops %d",
						topo.Name(), src, dst, len(route), topo.Hops(src, dst))
				}
				if src == dst {
					continue
				}
				if route[len(route)-1] != dst {
					t.Fatalf("%s: %d->%d route ends at %d", topo.Name(), src, dst, route[len(route)-1])
				}
				at, left := src, topo.Hops(src, dst)
				for _, next := range route {
					if !links[Link{From: at, To: next}] {
						t.Fatalf("%s: %d->%d route uses non-link %d->%d", topo.Name(), src, dst, at, next)
					}
					if got := topo.Hops(next, dst); got != left-1 {
						t.Fatalf("%s: %d->%d step to %d leaves %d hops, want %d",
							topo.Name(), src, dst, next, got, left-1)
					}
					at, left = next, left-1
				}
			}
		}
	}
}

// TestTopologyRouteDeterminism also checks that AppendRoute into a
// buffer with capacity reuses it: the same route, and no allocation.
func TestTopologyRouteDeterminism(t *testing.T) {
	for _, topo := range topologies64() {
		buf := make([]int, 0, topo.Nodes())
		for src := 0; src < topo.Nodes(); src++ {
			for dst := 0; dst < topo.Nodes(); dst++ {
				a, b := AppendRoute(topo, nil, src, dst), AppendRoute(topo, nil, src, dst)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s: %d->%d routed %v then %v", topo.Name(), src, dst, a, b)
				}
				if buf = AppendRoute(topo, buf[:0], src, dst); !slices.Equal(buf, a) {
					t.Fatalf("%s: %d->%d appended %v into capacity, %v into nil", topo.Name(), src, dst, buf, a)
				}
			}
		}
		far := topo.Nodes() - 1
		if allocs := testing.AllocsPerRun(10, func() { buf = AppendRoute(topo, buf[:0], 0, far) }); allocs != 0 {
			t.Errorf("%s: AppendRoute into capacity made %.0f allocations, want 0", topo.Name(), allocs)
		}
	}
}

// TestTopologyLinksCanonical asserts the link-enumeration contract the
// per-link metric names and channel inventory depend on: strictly
// ascending (From, To) with no duplicates, consistent with Neighbors.
func TestTopologyLinksCanonical(t *testing.T) {
	for _, topo := range topologies64() {
		ls := topo.Links()
		for i := 1; i < len(ls); i++ {
			a, b := ls[i-1], ls[i]
			if a.From > b.From || (a.From == b.From && a.To >= b.To) {
				t.Fatalf("%s: links out of canonical order at %d: %+v then %+v", topo.Name(), i, a, b)
			}
		}
		var fromNeighbors []Link
		for from := 0; from < topo.Nodes(); from++ {
			ns := topo.Neighbors(from)
			if !sort.IntsAreSorted(ns) {
				t.Fatalf("%s: Neighbors(%d) = %v not ascending", topo.Name(), from, ns)
			}
			for _, to := range ns {
				fromNeighbors = append(fromNeighbors, Link{From: from, To: to})
			}
		}
		if !reflect.DeepEqual(ls, fromNeighbors) {
			t.Fatalf("%s: Links() disagrees with Neighbors enumeration", topo.Name())
		}
	}
}

// TestMeshLinksMatchLegacyOrder pins the dense mesh's canonical link
// order to the pre-interface N² grid scan: ascending (From, To) over
// adjacent pairs. The per-link metric names derive from this order, so
// it is part of the byte-identity contract.
func TestMeshLinksMatchLegacyOrder(t *testing.T) {
	m := NewMesh(4, 4)
	var legacy []Link
	for from := 0; from < 16; from++ {
		for to := 0; to < 16; to++ {
			if from != to && m.Hops(from, to) == 1 {
				legacy = append(legacy, Link{From: from, To: to})
			}
		}
	}
	if got := m.Links(); !reflect.DeepEqual(got, legacy) {
		t.Fatalf("mesh links diverge from legacy grid order:\n got %v\nwant %v", got, legacy)
	}
}

func TestTorusWrapHalvesDiameter(t *testing.T) {
	m, tor := NewMesh(8, 8), NewTorus(8, 8)
	// Corner to corner: mesh pays 14 hops, torus wraps in 2.
	if h := m.Hops(0, 63); h != 14 {
		t.Fatalf("mesh corner distance %d, want 14", h)
	}
	if h := tor.Hops(0, 63); h != 2 {
		t.Fatalf("torus corner distance %d, want 2", h)
	}
	if a, b := AvgHops(tor), AvgHops(m); a >= b {
		t.Fatalf("torus avg hops %.3f not below mesh %.3f", a, b)
	}
}

func TestTorusTieBreakIsPositive(t *testing.T) {
	tor := NewTorus(8, 8)
	// 0 -> 4 on the top row: both directions are 4 hops; the tie must
	// deterministically resolve to the positive direction 1,2,3,4.
	want := []int{1, 2, 3, 4}
	if got := AppendRoute(tor, nil, 0, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("torus tie-broken route %v, want %v", got, want)
	}
}

func TestSlimDiameterIsTwo(t *testing.T) {
	s := NewSlim(8, 8)
	for a := 0; a < s.Nodes(); a++ {
		for b := 0; b < s.Nodes(); b++ {
			if a != b && s.Hops(a, b) > 2 {
				t.Fatalf("slim: Hops(%d,%d) = %d > 2", a, b, s.Hops(a, b))
			}
		}
	}
	// Row+column degree: 7 + 7 = 14 neighbors per router at 8x8.
	if d := len(s.Neighbors(0)); d != 14 {
		t.Fatalf("slim degree %d, want 14", d)
	}
}

func TestCMeshSameRouterTilesShareNode(t *testing.T) {
	cm := NewCMesh(4, 4, 4)
	if cm.Nodes() != 16 || cm.Tiles() != 64 {
		t.Fatalf("cmesh 4x4x4: %d routers / %d tiles", cm.Nodes(), cm.Tiles())
	}
	for tile := 0; tile < cm.Tiles(); tile++ {
		if cm.NodeOf(tile) != tile/4 {
			t.Fatalf("cmesh tile %d on router %d, want %d", tile, cm.NodeOf(tile), tile/4)
		}
	}
	// Tiles 0..3 share router 0: zero network hops between them.
	if h := cm.Hops(cm.NodeOf(1), cm.NodeOf(2)); h != 0 {
		t.Fatalf("same-router hop count %d, want 0", h)
	}
}

func TestTopologyValidationMessages(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"mesh 1x1", func() { NewMesh(1, 1) }},
		{"mesh 0x4", func() { NewMesh(0, 4) }},
		{"cmesh conc 1", func() { NewCMesh(4, 4, 1) }},
		{"torus 2x4", func() { NewTorus(2, 4) }},
		{"slim 1x8", func() { NewSlim(1, 8) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted", c.name)
				}
			}()
			c.fn()
		})
	}
}

// TestMeshAsymmetricRowIsLegal covers the small-fix satellite: a 1 x N
// row mesh is a legal programmatic topology (XY routing degenerates to
// one dimension) — the old validation rejected w=1 with a message that
// blamed the wrong dimension.
func TestMeshAsymmetricRowIsLegal(t *testing.T) {
	m := NewMesh(1, 4)
	if m.Tiles() != 4 {
		t.Fatalf("1x4 mesh tiles = %d", m.Tiles())
	}
	if got := AppendRoute(m, nil, 0, 3); len(got) != 3 {
		t.Fatalf("1x4 mesh route 0->3 = %v", got)
	}
}
