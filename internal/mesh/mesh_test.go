package mesh

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tilesim/internal/noc"
	"tilesim/internal/sim"
	"tilesim/internal/wire"
)

func TestRouteXYIsMinimalAndDimensionOrdered(t *testing.T) {
	topo := mustTopology("mesh", 4, 4, 1)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			route := AppendRoute(topo, nil, src, dst)
			if len(route) != topo.Hops(src, dst) {
				t.Fatalf("%d->%d: route length %d, hops %d", src, dst, len(route), topo.Hops(src, dst))
			}
			if route[len(route)-1] != dst {
				t.Fatalf("%d->%d: route ends at %d", src, dst, route[len(route)-1])
			}
			// X moves first, then Y: once Y changes, X must stay fixed.
			prev := src
			yPhase := false
			for _, id := range route {
				dx, dy := max(id%4-prev%4, prev%4-id%4), max(id/4-prev/4, prev/4-id/4)
				if dx+dy != 1 {
					t.Fatalf("%d->%d: non-adjacent step %d -> %d", src, dst, prev, id)
				}
				if dy == 1 {
					yPhase = true
				}
				if dx == 1 && yPhase {
					t.Fatalf("%d->%d: X move after Y phase", src, dst)
				}
				prev = id
			}
		}
	}
}

func TestAvgHops4x4(t *testing.T) {
	// For a 4x4 mesh the mean minimal distance over distinct pairs is
	// 2*(mean 1-D distance over pairs) adjusted for ordered pairs: 8/3.
	got := AvgHops(mustTopology("mesh", 4, 4, 1))
	if math.Abs(got-8.0/3.0) > 1e-12 {
		t.Fatalf("avg hops %.4f, want %.4f", got, 8.0/3.0)
	}
}

// TestDegenerateTopologyPanics checks that a 1x1 grid never reaches a
// network: NewTopology refuses it, and New panics on the zero Topology
// that comes back with the error rather than build a one-router network.
func TestDegenerateTopologyPanics(t *testing.T) {
	topo, err := NewTopology("mesh", 1, 1, 1)
	if err == nil {
		t.Fatalf("1x1 topology accepted as %s", topo.Label())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("network built on a refused 1x1 topology")
		}
	}()
	cfg := mustLayout("baseline")
	cfg.Topo = topo
	New(sim.NewKernel(), cfg, nil)
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
	if got := deliverOne(t, mustLayout("baseline"), m); got != 12 {
		t.Fatalf("1-hop latency %d, want 12", got)
	}
}

func TestBaselineMultiHopLatency(t *testing.T) {
	// Tile 0 -> tile 15: 6 hops. 6*(2+8) + 2 = 62, one flit.
	m := &noc.Message{Type: noc.GetS, Src: 0, Dst: 15, SizeBytes: 11}
	if got := deliverOne(t, mustLayout("baseline"), m); got != 62 {
		t.Fatalf("6-hop latency %d, want 62", got)
	}
}

func TestHeterogeneousVLFasterThanB(t *testing.T) {
	cfg := mustLayout("vlb")
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
	base := deliverOne(t, mustLayout("baseline"),
		&noc.Message{Type: noc.Data, Src: 0, Dst: 3, DataBytes: 64, SizeBytes: 67})
	cfg := mustLayout("vlb")
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
	cfg := mustLayout("baseline")
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
	cfg := mustLayout("vlb")
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
	n := New(k, mustLayout("baseline"), nil)
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
	cfg, err := Layout("vlb", 1) // 4-byte VL-Wires
	if err != nil {
		t.Fatal(err)
	}
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
	cfg := mustLayout("vlb")
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

func (o *countingObserver) LinkTraversal(k wire.Kind, b int, f noc.FlitCount) {
	o.links++
	o.bytes += b
}
func (o *countingObserver) RouterHop(b int, f noc.FlitCount) { o.routers++ }

func TestObserverSeesEveryHop(t *testing.T) {
	k := sim.NewKernel()
	obs := &countingObserver{}
	n := New(k, mustLayout("baseline"), obs)
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
	cfg := mustLayout("baseline")
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
	n := New(k, mustLayout("baseline"), nil)
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

// TestLayoutAreaBudgets checks every layout and VL width Layout builds
// against the baseline link's 600 tracks of metal, within the rounding
// tolerance of the paper's own VL+B layout (608 tracks with 3-byte
// VL-Wires): all eight cases, and vlbpw's 3-byte VL-Wires, which would
// take 616 tracks, refused.
func TestLayoutAreaBudgets(t *testing.T) {
	budget := wire.AreaUnits(wire.B8X, 75*8)
	for _, c := range []struct {
		name    string
		payload int // compressed address bytes: a VL plane of 3 + payload
		refused bool
	}{
		{name: "baseline"}, {name: "lpw"},
		{name: "vlb", payload: 0}, {name: "vlb", payload: 1}, {name: "vlb", payload: 2},
		{name: "vlbpw", payload: 0, refused: true}, {name: "vlbpw", payload: 1}, {name: "vlbpw", payload: 2},
	} {
		cfg, err := Layout(c.name, c.payload)
		if c.refused {
			if err == nil {
				t.Errorf("%s with %d-byte VL-Wires built", c.name, noc.ControlBytes+c.payload)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s, %d-byte address: %v", c.name, c.payload, err)
			continue
		}
		var area float64
		for _, ch := range cfg.Channels {
			if ch.WidthBytes > 0 {
				area += wire.AreaUnits(ch.Kind, ch.WidthBytes*8)
			}
		}
		if area > budget*1.015 {
			t.Errorf("%s, %d-byte address: %.0f track units exceeds budget %.0f", c.name, c.payload, area, budget)
		}
		if area < budget*0.55 {
			t.Errorf("%s, %d-byte address: %.0f track units wastes the budget %.0f", c.name, c.payload, area, budget)
		}
	}
}

func TestPWPlaneMessages(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, mustLayout("lpw"), nil)
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
	n := New(k, mustLayout("lpw"), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("VL+PW message accepted")
		}
	}()
	n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11, VL: true, PW: true})
}

// checkRouteWalk walks the network's per-hop links from router src to
// router dst and checks them against the topology: each link id, read
// as (From, To) in the canonical links, steps exactly to the next
// router AppendRoute names, and the walk stops at dst.
func checkRouteWalk(t *testing.T, n *Network, links []Link, src, dst int) {
	t.Helper()
	topo := n.Topology()
	at, to := n.posOf(src), n.posOf(dst)
	from := src
	for i, want := range AppendRoute(topo, nil, src, dst) {
		id, nx, ny := n.nextLink(at.x, at.y, to.x, to.y)
		next := pos{x: nx, y: ny}
		if l := links[id]; l.From != from || l.To != want || next != n.posOf(want) {
			t.Fatalf("%s: %d->%d hop %d is link %d (%d->%d) toward %+v, want %d->%d",
				topo.Label(), src, dst, i, id, l.From, l.To, next, from, want)
		}
		at, from = next, want
	}
	if at != to {
		t.Fatalf("%s: %d->%d walk stopped at %+v", topo.Label(), src, dst, at)
	}
}

// axisDegrees returns the most links any router of topo has along its
// row and along its column: the output ports a router needs per axis.
func axisDegrees(topo Topology) (row, col int) {
	w := topo.Width()
	rows, cols := make([]int, topo.Nodes()), make([]int, topo.Nodes())
	for _, l := range topo.Links() {
		if l.To/w == l.From/w {
			rows[l.From]++
		} else {
			cols[l.From]++
		}
	}
	return slices.Max(rows), slices.Max(cols)
}

// TestLinkRoutesMatchTopology checks the dense link table and the
// per-hop routing tables against the topology: every pair at 16 and
// 64 tiles and seeded pairs at 1024. The tables hold routers x (row
// ports + column ports) + w*w + h*h entries, none per router pair.
func TestLinkRoutesMatchTopology(t *testing.T) {
	full := append(topologies16(), topologies64()...)
	sampled := []Topology{mustTopology("torus", 32, 32, 1), mustTopology("slim", 32, 32, 1)}
	rng := rand.New(rand.NewSource(1))
	for _, topo := range append(full, sampled...) {
		cfg := mustLayout("baseline")
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
		nodes, w, h := topo.Nodes(), topo.Width(), topo.Height()
		row, col := axisDegrees(topo)
		if got, bound := len(n.out)+len(n.stepX)+len(n.stepY), nodes*(row+col)+w*w+h*h; got > bound {
			t.Fatalf("%s: routing tables hold %d entries, want at most %d", topo.Label(), got, bound)
		}
		if slices.Contains(sampled, topo) {
			for i := 0; i < 4000; i++ {
				if src, dst := rng.Intn(nodes), rng.Intn(nodes); src != dst {
					checkRouteWalk(t, n, links, src, dst)
				}
			}
		} else {
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					if src != dst {
						checkRouteWalk(t, n, links, src, dst)
					}
				}
			}
		}
	}
}

// TestEveryLinkHasAPort checks the port-indexed link tables on every
// topology at 16, 64 and 1024 tiles, and on the degenerate 1x4 and 4x1
// meshes (no row or no column ports): each router has as many ports on
// an axis as it has links along it at most (4 on mesh, cmesh and
// torus with at least 3 routers per axis), every link sits behind exactly one output port, and every
// port a step table names holds a link.
func TestEveryLinkHasAPort(t *testing.T) {
	topos := slices.Concat(topologies16(), topologies64(), topologies1024(),
		[]Topology{mustTopology("mesh", 1, 4, 1), mustTopology("mesh", 4, 1, 1)})
	for _, topo := range topos {
		cfg := mustLayout("baseline")
		cfg.Topo = topo
		n := New(sim.NewKernel(), cfg, nil)
		row, col := axisDegrees(topo)
		if int(n.stride) != row+col || int(n.portsX) != row {
			t.Fatalf("%s: %d row ports of %d, want %d of %d", topo.Label(), n.portsX, n.stride, row, row+col)
		}
		if topo.Name() != "slim" && topo.Width() > 2 && topo.Height() > 2 && n.stride != 4 {
			t.Errorf("%s: %d ports per router, want 4", topo.Label(), n.stride)
		}
		seen := make([]int, len(n.links))
		for _, id := range n.out {
			if id >= 0 {
				seen[id]++
			}
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("%s: link %d (%d->%d) sits behind %d ports, want 1",
					topo.Label(), id, n.links[id].from, n.links[id].to, c)
			}
		}
		w, h := int(n.w), int(n.h)
		for r := 0; r < topo.Nodes(); r++ {
			x, y, base := r%w, r/w, r*int(n.stride)
			for dx := 0; dx < w; dx++ {
				if port := n.stepX[x*w+dx] & 0xff; dx != x && n.out[base+int(port)] < 0 {
					t.Fatalf("%s: router %d's row port %d toward column %d holds no link", topo.Label(), r, port, dx)
				}
			}
			for dy := 0; dy < h; dy++ {
				if port := n.stepY[y*h+dy] & 0xff; dy != y && n.out[base+int(n.portsX+port)] < 0 {
					t.Fatalf("%s: router %d's column port %d toward row %d holds no link", topo.Label(), r, port, dy)
				}
			}
		}
	}
}

// TestRouteWalkDoesNotAllocate walks every route from 32 sources on a
// 1024-tile torus and slim network: computing each hop's link
// allocates nothing.
func TestRouteWalkDoesNotAllocate(t *testing.T) {
	for _, topo := range []Topology{mustTopology("torus", 32, 32, 1), mustTopology("slim", 32, 32, 1)} {
		cfg := mustLayout("baseline")
		cfg.Topo = topo
		n := New(sim.NewKernel(), cfg, nil)
		hops := 0
		allocs := testing.AllocsPerRun(1, func() {
			hops = 0
			for src := 0; src < 32; src++ {
				for dst := 0; dst < topo.Nodes(); dst++ {
					at, to := n.posOf(src), n.posOf(dst)
					for at != to {
						_, at.x, at.y = n.nextLink(at.x, at.y, to.x, to.y)
						hops++
					}
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: walking %d hops made %.0f allocations, want 0", topo.Label(), hops, allocs)
		}
	}
}
