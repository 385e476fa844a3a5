package mesh

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"tilesim/internal/noc"
	"tilesim/internal/sim"
	"tilesim/internal/wire"
)

func TestTopologyCoordRoundTrip(t *testing.T) {
	topo := NewMesh(4, 4)
	for id := 0; id < 16; id++ {
		if got := topo.IDOf(topo.CoordOf(id)); got != id {
			t.Errorf("tile %d round-trips to %d", id, got)
		}
	}
	if topo.Tiles() != 16 {
		t.Errorf("tiles = %d", topo.Tiles())
	}
}

func TestRouteXYIsMinimalAndDimensionOrdered(t *testing.T) {
	topo := NewMesh(4, 4)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			route := topo.AppendRoute(nil, src, dst)
			if len(route) != topo.Hops(src, dst) {
				t.Fatalf("%d->%d: route length %d, hops %d", src, dst, len(route), topo.Hops(src, dst))
			}
			if route[len(route)-1] != dst {
				t.Fatalf("%d->%d: route ends at %d", src, dst, route[len(route)-1])
			}
			// X moves first, then Y: once Y changes, X must stay fixed.
			prev := topo.CoordOf(src)
			yPhase := false
			for _, id := range route {
				c := topo.CoordOf(id)
				dx, dy := abs(c.X-prev.X), abs(c.Y-prev.Y)
				if dx+dy != 1 {
					t.Fatalf("%d->%d: non-adjacent step %+v -> %+v", src, dst, prev, c)
				}
				if dy == 1 {
					yPhase = true
				}
				if dx == 1 && yPhase {
					t.Fatalf("%d->%d: X move after Y phase", src, dst)
				}
				prev = c
			}
		}
	}
}

func TestAvgHops4x4(t *testing.T) {
	// For a 4x4 mesh the mean minimal distance over distinct pairs is
	// 2*(mean 1-D distance over pairs) adjusted for ordered pairs: 8/3.
	got := AvgHops(NewMesh(4, 4))
	if math.Abs(got-8.0/3.0) > 1e-12 {
		t.Fatalf("avg hops %.4f, want %.4f", got, 8.0/3.0)
	}
}

func TestDegenerateTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1x1 topology accepted")
		}
	}()
	NewMesh(1, 1)
}

// deliverOne sends a single message through an idle network and returns
// its end-to-end latency in cycles.
func deliverOne(t *testing.T, cfg Config, m *noc.Message) sim.Time {
	t.Helper()
	k := sim.NewKernel()
	n := New(k, cfg, nil)
	var done sim.Time
	for i := 0; i < n.Topology().Tiles(); i++ {
		n.SetHandler(i, func(k *sim.Kernel, got *noc.Message) {
			if *got != *m {
				t.Fatalf("delivered %+v, sent %+v", *got, *m)
			}
			done = k.Now()
		})
	}
	n.Send(m)
	k.Run(nil)
	if n.InFlight() != 0 {
		t.Fatalf("in-flight %d after drain", n.InFlight())
	}
	return done
}

func TestBaselineSingleHopLatency(t *testing.T) {
	// Tile 0 -> tile 1: one hop. Router(2) + link(8) + final router(2)
	// + 0 extra serialization (11B message = 1 flit on 75B link) = 12.
	m := &noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11}
	if got := deliverOne(t, DefaultBaseline(), m); got != 12 {
		t.Fatalf("1-hop latency %d, want 12", got)
	}
}

func TestBaselineMultiHopLatency(t *testing.T) {
	// Tile 0 -> tile 15: 6 hops. 6*(2+8) + 2 = 62, one flit.
	m := &noc.Message{Type: noc.GetS, Src: 0, Dst: 15, SizeBytes: 11}
	if got := deliverOne(t, DefaultBaseline(), m); got != 62 {
		t.Fatalf("6-hop latency %d, want 62", got)
	}
}

func TestHeterogeneousVLFasterThanB(t *testing.T) {
	cfg, err := Heterogeneous(5)
	if err != nil {
		t.Fatal(err)
	}
	// Compressed 5-byte request on VL wires: 6 hops, 6*(2+3)+2 = 32.
	mVL := &noc.Message{Type: noc.GetS, Src: 0, Dst: 15, SizeBytes: 5, Compressed: true, VL: true}
	gotVL := deliverOne(t, cfg, mVL)
	if gotVL != 32 {
		t.Fatalf("VL 6-hop latency %d, want 32", gotVL)
	}
	// Uncompressed 11-byte request on the 34B B plane: 6*(2+8)+2 = 62.
	mB := &noc.Message{Type: noc.GetS, Src: 0, Dst: 15, SizeBytes: 11}
	if got := deliverOne(t, cfg, mB); got != 62 {
		t.Fatalf("B 6-hop latency %d, want 62", got)
	}
}

func TestDataReplySerializationOnNarrowBPlane(t *testing.T) {
	// 67-byte reply: baseline 75B link = 1 flit; heterogeneous 34B B
	// plane = 2 flits -> +1 cycle tail serialization.
	base := deliverOne(t, DefaultBaseline(),
		&noc.Message{Type: noc.Data, Src: 0, Dst: 3, DataBytes: 64, SizeBytes: 67})
	cfg, _ := Heterogeneous(5)
	het := deliverOne(t, cfg,
		&noc.Message{Type: noc.Data, Src: 0, Dst: 3, DataBytes: 64, SizeBytes: 67})
	if het != base+1 {
		t.Fatalf("data reply: het %d, baseline %d, want +1 serialization", het, base)
	}
}

func TestChannelContentionSerializesHeads(t *testing.T) {
	// Two 67-byte messages injected the same cycle on the same route:
	// the second head must wait for the first tail to enter the link.
	k := sim.NewKernel()
	cfg := DefaultBaseline()
	cfg.Channels[PlaneB].WidthBytes = 34 // 2 flits per message
	n := New(k, cfg, nil)
	var times []sim.Time
	for i := 0; i < 16; i++ {
		n.SetHandler(i, func(k *sim.Kernel, m *noc.Message) { times = append(times, k.Now()) })
	}
	m1 := &noc.Message{Type: noc.Data, Src: 0, Dst: 1, DataBytes: 64, SizeBytes: 67}
	m2 := &noc.Message{Type: noc.WriteBack, Src: 0, Dst: 1, DataBytes: 64, SizeBytes: 67}
	n.Send(m1)
	n.Send(m2)
	k.Run(nil)
	if len(times) != 2 {
		t.Fatalf("delivered %d messages", len(times))
	}
	// First: 2+8+2+1 = 13. Second head enters link 2 cycles later.
	if times[0] != 13 || times[1] != 15 {
		t.Fatalf("delivery times %v, want [13 15]", times)
	}
	if s := n.Summary(); s.MeanHopQueuing == 0 {
		t.Error("queueing not recorded under contention")
	}
}

func TestPlanesDoNotContend(t *testing.T) {
	// A VL message and a B message on the same physical link are on
	// different wire planes: no mutual delay.
	cfg, _ := Heterogeneous(5)
	k := sim.NewKernel()
	n := New(k, cfg, nil)
	var vlTime sim.Time
	for i := 0; i < 16; i++ {
		n.SetHandler(i, func(k *sim.Kernel, m *noc.Message) {
			if m.VL {
				vlTime = k.Now()
			}
		})
	}
	big := &noc.Message{Type: noc.Data, Src: 0, Dst: 1, DataBytes: 64, SizeBytes: 67}
	small := &noc.Message{Type: noc.InvAck, Src: 0, Dst: 1, SizeBytes: 3, VL: true}
	n.Send(big)
	n.Send(small)
	k.Run(nil)
	// VL: 2 + 3 + 2 = 7, unaffected by the 2-flit B message.
	if vlTime != 7 {
		t.Fatalf("VL delivery %d, want 7 (independent of B traffic)", vlTime)
	}
}

func TestSendValidates(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, DefaultBaseline(), nil)
	cases := []*noc.Message{
		{Type: noc.GetS, Src: 0, Dst: 0, SizeBytes: 11},          // self
		{Type: noc.GetS, Src: 0, Dst: 1},                         // no size
		{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 4, VL: true}, // no VL plane
	}
	for i, m := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad send %d accepted", i)
				}
			}()
			n.Send(m)
		}()
	}
}

func TestSummaryCounts(t *testing.T) {
	k := sim.NewKernel()
	cfg, _ := Heterogeneous(4)
	n := New(k, cfg, nil)
	for i := 0; i < 16; i++ {
		n.SetHandler(i, func(*sim.Kernel, *noc.Message) {})
	}
	n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 5, SizeBytes: 4, VL: true, Compressed: true})
	n.Send(&noc.Message{Type: noc.Data, Src: 5, Dst: 0, DataBytes: 64, SizeBytes: 67})
	n.Send(&noc.Message{Type: noc.WriteBack, Src: 3, Dst: 9, DataBytes: 64, SizeBytes: 67})
	k.Run(nil)
	s := n.Summary()
	if s.TotalMessages() != 3 {
		t.Fatalf("total %d, want 3", s.TotalMessages())
	}
	if s.Messages[noc.ClassRequest] != 1 || s.Messages[noc.ClassResponse] != 1 || s.Messages[noc.ClassReplacement] != 1 {
		t.Fatalf("class counts %v", s.Messages)
	}
	if s.PlaneMessages[PlaneVL] != 1 || s.PlaneMessages[PlaneB] != 2 {
		t.Fatalf("plane counts %v", s.PlaneMessages)
	}
	if s.Bytes[noc.ClassRequest] != 4 {
		t.Fatalf("request bytes %d, want 4 (compressed)", s.Bytes[noc.ClassRequest])
	}
	if s.TotalFlits == 0 {
		t.Fatal("no flits recorded")
	}
}

func TestStaticWires(t *testing.T) {
	k := sim.NewKernel()
	cfg, _ := Heterogeneous(5)
	n := New(k, cfg, nil)
	// 4x4 mesh: 2 * (3*4 + 3*4) = 48 directed links.
	if n.Links() != 48 {
		t.Fatalf("links = %d, want 48", n.Links())
	}
	sw := n.StaticWires()
	if len(sw) != 2 {
		t.Fatalf("planes = %d, want 2", len(sw))
	}
	var vl, b StaticWireStats
	for _, s := range sw {
		if s.Kind == wire.VL5B {
			vl = s
		} else {
			b = s
		}
	}
	if vl.Wires != 5*8*48 {
		t.Errorf("VL wires %d, want %d", vl.Wires, 5*8*48)
	}
	if b.Wires != 34*8*48 {
		t.Errorf("B wires %d, want %d", b.Wires, 34*8*48)
	}
}

type countingObserver struct {
	links, routers int
	bytes          int
}

func (o *countingObserver) LinkTraversal(k wire.Kind, l float64, b int, f noc.FlitCount) {
	o.links++
	o.bytes += b
}
func (o *countingObserver) RouterHop(b int, f noc.FlitCount) { o.routers++ }

func TestObserverSeesEveryHop(t *testing.T) {
	k := sim.NewKernel()
	obs := &countingObserver{}
	n := New(k, DefaultBaseline(), obs)
	for i := 0; i < 16; i++ {
		n.SetHandler(i, func(*sim.Kernel, *noc.Message) {})
	}
	// 0 -> 15: 6 hops.
	n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 15, SizeBytes: 11})
	k.Run(nil)
	if obs.links != 6 || obs.routers != 6 {
		t.Fatalf("observer saw %d links, %d routers; want 6, 6", obs.links, obs.routers)
	}
	if obs.bytes != 6*11 {
		t.Fatalf("observer saw %d bytes, want 66", obs.bytes)
	}
}

// Property: end-to-end latency on an idle network equals
// hops*(router+link) + router + flits - 1 for any pair.
func TestIdleLatencyFormulaProperty(t *testing.T) {
	cfg := DefaultBaseline()
	f := func(srcRaw, dstRaw, sizeRaw uint8) bool {
		src, dst := int(srcRaw%16), int(dstRaw%16)
		if src == dst {
			return true
		}
		size := 1 + int(sizeRaw)%67
		m := &noc.Message{Type: noc.GetS, Src: src, Dst: dst, SizeBytes: size}
		k := sim.NewKernel()
		n := New(k, cfg, nil)
		var got sim.Time
		for i := 0; i < 16; i++ {
			n.SetHandler(i, func(k *sim.Kernel, _ *noc.Message) { got = k.Now() })
		}
		n.Send(m)
		k.Run(nil)
		topo := n.Topology()
		hops := topo.Hops(src, dst)
		flits := int(noc.Flits(size, 75))
		want := sim.Time(hops*(2+8) + 2 + flits - 1)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, DefaultBaseline(), nil)
	for i := 0; i < 16; i++ {
		n.SetHandler(i, func(*sim.Kernel, *noc.Message) {})
	}
	// Mixed distances: 1-hop and 6-hop requests.
	for i := 0; i < 10; i++ {
		n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11})
		n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 15, SizeBytes: 11})
		k.Run(nil)
	}
	p50 := n.LatencyPercentile(noc.ClassRequest, 0.5)
	p99 := n.LatencyPercentile(noc.ClassRequest, 0.99)
	// 1-hop = 12 cycles, 6-hop = 62 cycles.
	if p50 < 10 || p50 > 64 {
		t.Fatalf("p50 = %v out of range", p50)
	}
	if p99 < 60 {
		t.Fatalf("p99 = %v, expected to capture the 6-hop tail", p99)
	}
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
}

func TestLayoutAreaBudgets(t *testing.T) {
	// Every layout must fit the 75-byte B-Wire metal budget (600 track
	// units), within the same rounding tolerance as the paper's own
	// VL+B layout.
	budget := wire.AreaUnits(wire.B8X, 75*8)
	layouts := map[string]Config{
		"lpw": LayoutLPW(),
	}
	if c, err := LayoutVLBPW(4); err == nil {
		layouts["vlbpw4"] = c
	}
	if c, err := LayoutVLBPW(5); err == nil {
		layouts["vlbpw5"] = c
	}
	for name, cfg := range layouts {
		var area float64
		for _, ch := range cfg.Channels {
			if ch.WidthBytes > 0 {
				area += wire.AreaUnits(ch.Kind, ch.WidthBytes*8)
			}
		}
		if area > budget*1.015 {
			t.Errorf("%s: %.0f track units exceeds budget %.0f", name, area, budget)
		}
		if area < budget*0.55 {
			t.Errorf("%s: %.0f track units wastes the budget %.0f", name, area, budget)
		}
	}
}

func TestPWPlaneMessages(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, LayoutLPW(), nil)
	for i := 0; i < 16; i++ {
		n.SetHandler(i, func(*sim.Kernel, *noc.Message) {})
	}
	// A relaxed data reply on PW wires: slow but delivered.
	m := &noc.Message{Type: noc.Data, Src: 0, Dst: 1, DataBytes: 64, SizeBytes: 67, Relaxed: true, PW: true}
	n.Send(m)
	k.Run(nil)
	s := n.Summary()
	if s.PlaneMessages[PlanePW] != 1 {
		t.Fatalf("PW plane count %v", s.PlaneMessages)
	}
	// PW 5mm link = 26 cycles: 2+26+2 + (flits-1 = 1) = 31.
	if lat := s.MeanLatency[noc.ClassResponse]; lat != 31 {
		t.Fatalf("PW 1-hop latency %v, want 31", lat)
	}
}

func TestBothPlanesRequestedPanics(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, LayoutLPW(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("VL+PW message accepted")
		}
	}()
	n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11, VL: true, PW: true})
}

// checkCachedRoute checks the network's cached route from src to dst
// against the topology: its link ids, read as (From, To) in the
// canonical links, walk exactly the routers AppendRoute names, and a
// second lookup hits the cache.
func checkCachedRoute(t *testing.T, n *Network, links []Link, src, dst int) {
	t.Helper()
	topo := n.Topology()
	want := topo.AppendRoute(nil, src, dst)
	route, hops := n.routeOf(src, dst)
	if hops != len(want) {
		t.Fatalf("%s: %d->%d cached %d hops, topology routes %d", topo.Label(), src, dst, hops, len(want))
	}
	at := src
	for i, next := range want {
		id := n.routeArena[route+i]
		if l := links[id]; l.From != at || l.To != next {
			t.Fatalf("%s: %d->%d hop %d is link %d (%d->%d), want %d->%d",
				topo.Label(), src, dst, i, id, l.From, l.To, at, next)
		}
		at = next
	}
	if again, _ := n.routeOf(src, dst); again != route {
		t.Fatalf("%s: %d->%d cached twice, at %d then %d", topo.Label(), src, dst, route, again)
	}
}

// TestLinkRoutesMatchTopology checks the dense link table and the
// link-id route cache against the topology: every pair at 16 and 64
// tiles and seeded pairs at 1024.
func TestLinkRoutesMatchTopology(t *testing.T) {
	full := []Topology{NewMesh(4, 4), NewCMesh(2, 2, 4), NewTorus(4, 4), NewSlim(4, 4)}
	full = append(full, topologies64()...)
	sampled := []Topology{NewTorus(32, 32), NewSlim(32, 32)}
	rng := rand.New(rand.NewSource(1))
	for _, topo := range append(full, sampled...) {
		cfg := DefaultBaseline()
		cfg.Topo = topo
		n := New(sim.NewKernel(), cfg, nil)
		links := topo.Links()
		if len(n.links) != len(links) {
			t.Fatalf("%s: %d dense links, topology has %d", topo.Label(), len(n.links), len(links))
		}
		for id, l := range n.links {
			if l.from != links[id].From || l.to != links[id].To || l.id != l.from*topo.Nodes()+l.to {
				t.Fatalf("%s: dense link %d is %d->%d (id %d), canonical link is %+v",
					topo.Label(), id, l.from, l.to, l.id, links[id])
			}
		}
		nodes := topo.Nodes()
		if slices.Contains(sampled, topo) {
			for i := 0; i < 4000; i++ {
				if src, dst := rng.Intn(nodes), rng.Intn(nodes); src != dst {
					checkCachedRoute(t, n, links, src, dst)
				}
			}
		} else {
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					if src != dst {
						checkCachedRoute(t, n, links, src, dst)
					}
				}
			}
		}
		// Router 0 and the last router are never adjacent here.
		if topo.Hops(0, nodes-1) < 2 {
			t.Fatalf("%s: routers 0 and %d are adjacent", topo.Label(), nodes-1)
		}
		if msg := mustPanic(t, func() { n.linkID(0, nodes-1) }); !strings.Contains(msg, "mesh: no link") {
			t.Errorf("%s: non-adjacent lookup panicked with %q", topo.Label(), msg)
		}
	}
}

// TestRouteCacheDoesNotAllocatePerPair builds every route from 32
// sources on a 1024-tile torus and bounds the allocations to the
// arena's geometric growth: logarithmic in its final size, not one per
// router pair.
func TestRouteCacheDoesNotAllocatePerPair(t *testing.T) {
	cfg := DefaultBaseline()
	cfg.Topo = NewTorus(32, 32)
	const sources, nodes = 32, 1024
	setup := testing.AllocsPerRun(1, func() { New(sim.NewKernel(), cfg, nil) })
	var n *Network
	total := testing.AllocsPerRun(1, func() {
		n = New(sim.NewKernel(), cfg, nil)
		for src := 0; src < sources; src++ {
			for dst := 0; dst < nodes; dst++ {
				if src != dst {
					n.routeOf(src, dst)
				}
			}
		}
	})
	// append grows a large slice by at least 1.25x, and each growth
	// makes at most two allocations (the race detector materializes
	// slices.Grow's temporary); a few more for the route scratch buffer.
	bound := 2*math.Log(float64(cap(n.routeArena)))/math.Log(1.25) + 8
	routes := total - setup
	t.Logf("%d routes, %d arena entries: %.0f allocations (bound %.0f)",
		sources*(nodes-1), len(n.routeArena), routes, bound)
	if routes > bound {
		t.Fatalf("building %d routes made %.0f allocations, want at most %.0f",
			sources*(nodes-1), routes, bound)
	}
}
