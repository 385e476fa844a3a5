package mesh

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// mustTopology builds a topology the test knows to be valid.
func mustTopology(name string, w, h, conc int) Topology {
	t, err := NewTopology(name, w, h, conc)
	if err != nil {
		panic(err)
	}
	return t
}

// mustLayout builds a named layout for a 2-byte compressed address (a
// 5-byte VL plane where the layout has VL-Wires).
func mustLayout(name string) Config {
	c, err := Layout(name, 2)
	if err != nil {
		panic(err)
	}
	return c
}

// topologies64 returns one 64-tile instance of every topology, the
// scale study's smallest point and the size of the root package's
// 64-tile determinism test and pinned results.
func topologies64() []Topology {
	return []Topology{
		mustTopology("mesh", 8, 8, 1),
		mustTopology("cmesh", 4, 4, 4),
		mustTopology("torus", 8, 8, 1),
		mustTopology("slim", 8, 8, 1),
	}
}

// topologies16 and topologies1024 are the paper's size and the scale
// study's largest, laid out as cmp lays them out.
func topologies16() []Topology {
	return []Topology{
		mustTopology("mesh", 4, 4, 1),
		mustTopology("cmesh", 2, 2, 4),
		mustTopology("torus", 4, 4, 1),
		mustTopology("slim", 4, 4, 1),
	}
}

func topologies1024() []Topology {
	return []Topology{
		mustTopology("mesh", 32, 32, 1),
		mustTopology("cmesh", 16, 16, 4),
		mustTopology("torus", 32, 32, 1),
		mustTopology("slim", 32, 32, 1),
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

// TestTopologyLinksCanonical pins the link order that the dense link
// table, every per-link metric name and the static wire inventory
// follow: for every kind at 16, 64 and 1024 tiles, Links() is exactly
// the router pairs at Hops 1, in ascending (From, To). Links() derives
// from Step and Hops is a closed form per kind, so the two must agree.
func TestTopologyLinksCanonical(t *testing.T) {
	for _, topo := range slices.Concat(topologies16(), topologies64(), topologies1024()) {
		var want []Link
		for from := 0; from < topo.Nodes(); from++ {
			for to := 0; to < topo.Nodes(); to++ {
				if topo.Hops(from, to) == 1 {
					want = append(want, Link{From: from, To: to})
				}
			}
		}
		if got := topo.Links(); !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: %d links, want %d; first difference at %d", topo.Label(), len(got), len(want), i)
		}
	}
}

// TestMeshLinksMatchLegacyOrder pins the paper's 4x4 mesh to the
// pre-interface N² grid scan: ascending (From, To) over adjacent pairs,
// 48 links. The per-link metric names derive from this order, so the
// 4x4 goldens and the pinned results depend on it.
func TestMeshLinksMatchLegacyOrder(t *testing.T) {
	m := mustTopology("mesh", 4, 4, 1)
	var legacy []Link
	for from := 0; from < 16; from++ {
		for to := 0; to < 16; to++ {
			if from != to && m.Hops(from, to) == 1 {
				legacy = append(legacy, Link{From: from, To: to})
			}
		}
	}
	if len(legacy) != 48 {
		t.Fatalf("4x4 mesh has %d adjacent pairs, want 48", len(legacy))
	}
	if got := m.Links(); !reflect.DeepEqual(got, legacy) {
		t.Fatalf("mesh links diverge from legacy grid order:\n got %v\nwant %v", got, legacy)
	}
}

func TestTorusWrapHalvesDiameter(t *testing.T) {
	m, tor := mustTopology("mesh", 8, 8, 1), mustTopology("torus", 8, 8, 1)
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
	tor := mustTopology("torus", 8, 8, 1)
	// 0 -> 4 on the top row: both directions are 4 hops; the tie must
	// deterministically resolve to the positive direction 1,2,3,4.
	want := []int{1, 2, 3, 4}
	if got := AppendRoute(tor, nil, 0, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("torus tie-broken route %v, want %v", got, want)
	}
}

func TestSlimDiameterIsTwo(t *testing.T) {
	s := mustTopology("slim", 8, 8, 1)
	for a := 0; a < s.Nodes(); a++ {
		for b := 0; b < s.Nodes(); b++ {
			if a != b && s.Hops(a, b) > 2 {
				t.Fatalf("slim: Hops(%d,%d) = %d > 2", a, b, s.Hops(a, b))
			}
		}
	}
	// Row+column degree: 7 + 7 = 14 links from each router at 8x8.
	if row, col := axisDegrees(s); row+col != 14 {
		t.Fatalf("slim degree %d + %d, want 14", row, col)
	}
}

func TestCMeshSameRouterTilesShareNode(t *testing.T) {
	cm := mustTopology("cmesh", 4, 4, 4)
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

// TestTopologyValidationMessages checks that NewTopology returns an
// error, naming the topology and the broken rule, for each shape it
// cannot build.
func TestTopologyValidationMessages(t *testing.T) {
	cases := []struct {
		name       string
		kind       string
		w, h, conc int
		want       string // substring of the error
	}{
		{"hypercube 4x4", "hypercube", 4, 4, 1, `unknown topology "hypercube"`},
		{"mesh 1x1", "mesh", 1, 1, 1, "mesh needs 2.."},
		{"mesh 0x4", "mesh", 0, 4, 1, "mesh needs 2.."},
		{"mesh 2^22x2^22", "mesh", 1 << 22, 1 << 22, 1, "mesh needs 2.."},
		{"cmesh conc 1", "cmesh", 4, 4, 1, "cmesh needs at least 2 tiles per router"},
		{"torus conc 4", "torus", 4, 4, 4, "torus attaches 1 tile per router"},
		{"torus 2x4", "torus", 2, 4, 1, "torus needs both dimensions >= 3"},
		{"slim 1x8", "slim", 1, 8, 1, "slim needs both dimensions in 2..256"},
		{"slim 257x2", "slim", 257, 2, 1, "slim needs both dimensions in 2..256"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo, err := NewTopology(c.kind, c.w, c.h, c.conc)
			if err == nil {
				t.Fatalf("%s accepted as %s", c.name, topo.Label())
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestMeshAsymmetricRowIsLegal covers the small-fix satellite: a 1 x N
// row mesh is a legal programmatic topology (XY routing degenerates to
// one dimension) — the old validation rejected w=1 with a message that
// blamed the wrong dimension.
func TestMeshAsymmetricRowIsLegal(t *testing.T) {
	m := mustTopology("mesh", 1, 4, 1)
	if m.Tiles() != 4 {
		t.Fatalf("1x4 mesh tiles = %d", m.Tiles())
	}
	if got := AppendRoute(m, nil, 0, 3); len(got) != 3 {
		t.Fatalf("1x4 mesh route 0->3 = %v", got)
	}
}
