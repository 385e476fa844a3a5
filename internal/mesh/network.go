package mesh

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"tilesim/internal/fault"
	"tilesim/internal/noc"
	"tilesim/internal/obs"
	"tilesim/internal/sim"
	"tilesim/internal/stats"
	"tilesim/internal/wire"
)

// Plane selects the physical channel set a message travels on.
type Plane int

const (
	// PlaneB is the baseline-wire channel (always present).
	PlaneB Plane = iota
	// PlaneVL is the low-latency channel: VL-Wires in the paper's
	// proposal, L-Wires in the Cheng-style layout of the Reply
	// Partitioning extension.
	PlaneVL
	// PlanePW is the power-optimized channel for non-critical messages
	// (present only in the Reply Partitioning layouts).
	PlanePW

	numPlanes
)

// String names the plane.
func (p Plane) String() string {
	switch p {
	case PlaneB:
		return "B"
	case PlaneVL:
		return "VL"
	case PlanePW:
		return "PW"
	}
	return "?"
}

// ChannelConfig describes one wire plane of every link.
type ChannelConfig struct {
	Kind       wire.Kind
	WidthBytes int
}

// Config parameterizes the network.
type Config struct {
	// Topo is the interconnect topology (NewTopology).
	Topo Topology
	// RouterLatency is the per-hop router pipeline depth in cycles.
	RouterLatency int
	// Channels maps each plane to its wire design; a zero-width plane is
	// absent. PlaneB must be present.
	Channels [numPlanes]ChannelConfig
	// LinkCyclesScale scales every channel's wire-traversal cycles
	// (rounded up, minimum 1); 0 means 1.0. Used by the sensitivity
	// ablation to explore faster/slower wire technology around the
	// calibrated 0.4 ns/mm point.
	LinkCyclesScale float64
}

// maxWireCycles bounds a channel's scaled wire latency. The cycle clock
// is 64 bits wide; 2^62 leaves it room for the sums a run adds on top,
// the bound trace.CheckReplay puts on replayed compute.
const maxWireCycles = 1 << 62

// Validate returns the first setting New cannot build a network from,
// or nil. Its messages carry no package prefix: New panics with them
// and cmp.NewSystem returns them wrapped.
func (c Config) Validate() error {
	if c.Topo == (Topology{}) {
		return errors.New("no topology: build one with NewTopology")
	}
	if c.Channels[PlaneB].WidthBytes <= 0 && c.Channels[PlanePW].WidthBytes <= 0 {
		return errors.New("a bulk channel (PlaneB or PlanePW) is mandatory")
	}
	if c.RouterLatency < 1 {
		return fmt.Errorf("router latency must be >= 1 cycle, got %d", c.RouterLatency)
	}
	// Negated, so NaN fails it too.
	if s := c.LinkCyclesScale; !(s >= 0 && s <= math.MaxFloat64) {
		return fmt.Errorf("wire-latency scale must be finite and non-negative, got %v", s)
	}
	for p := Plane(0); p < numPlanes; p++ {
		ch := c.Channels[p]
		if ch.WidthBytes > 0 && float64(wire.LatencyCycles(ch.Kind))*c.LinkCyclesScale > maxWireCycles {
			return fmt.Errorf("wire-latency scale %v puts the %v plane's wire latency above 2^62 cycles", c.LinkCyclesScale, p)
		}
	}
	return nil
}

// paperMesh is the paper's network: a 4x4 mesh, one tile per router.
var paperMesh = Topology{name: "mesh", w: 4, h: 4, conc: 1}

// layouts is every link layout Layout builds. Each spends the metal of
// the paper's baseline link, 75 bytes of 8X B-Wires at one track per
// wire (600 tracks), on its planes: w bytes of kind k take
// wire.AreaUnits(k, 8w) tracks. A layout with minVL > 0 has VL-Wires
// on its VL plane, as wide as a compressed short message: 3 control
// bytes plus the compressed address, minVL to 5 bytes (Table 3).
var layouts = [...]struct {
	name  string
	minVL int
	ch    [numPlanes]ChannelConfig
}{
	// The paper's baseline: 75 B x 8 x 1.0 = 600.
	{name: "baseline", ch: [numPlanes]ChannelConfig{
		PlaneB: {Kind: wire.B8X, WidthBytes: 75},
	}},
	// The proposal (Section 4.3): 3 B x 8 x 14 (VL3B) = 336,
	// 4 B x 8 x 10 (VL4B) = 320 or 5 B x 8 x 8 (VL5B) = 320, plus
	// 34 B x 8 x 1.0 (B) = 272: 608 or 592, the paper's rounding.
	{name: "vlb", minVL: 3, ch: [numPlanes]ChannelConfig{
		PlaneB: {Kind: wire.B8X, WidthBytes: 34},
	}},
	// Cheng et al. / Reply Partitioning: 11 B of L-Wires carry whole
	// short critical messages uncompressed, and the PW-Wires double as
	// the bulk plane: 11 B x 8 x 4.0 (L) = 352 plus 62 B x 8 x 0.5 (PW)
	// = 248: 600.
	{name: "lpw", ch: [numPlanes]ChannelConfig{
		PlaneVL: {Kind: wire.L8X, WidthBytes: 11},
		PlanePW: {Kind: wire.PW4X, WidthBytes: 62},
	}},
	// The combined design the paper sketches as future work: VL-Wires
	// for compressed critical shorts, a small B plane for uncompressed
	// shorts and partial replies, PW-Wires for the non-critical bulk:
	// 320 (VL4B or VL5B) + 20 B x 8 x 1.0 (B) = 160 + 30 B x 8 x 0.5
	// (PW) = 120: 600. VL3B's 336 would make 616, past the budget.
	{name: "vlbpw", minVL: 4, ch: [numPlanes]ChannelConfig{
		PlaneB:  {Kind: wire.B8X, WidthBytes: 20},
		PlanePW: {Kind: wire.PW4X, WidthBytes: 30},
	}},
}

// Layout returns the named link layout ("baseline", "vlb", "lpw" or
// "vlbpw", the layouts table) on the paper's 4x4 mesh, 5 mm links
// (wire.LinkLengthM) and 2-stage routers (the speculative two-stage
// pipeline typical of the paper's era). payloadBytes is the compressed
// address a VL-Wire plane carries beside the control bytes; the
// layouts without VL-Wires ignore it. Its messages carry no package
// prefix, like Validate's.
func Layout(name string, payloadBytes int) (Config, error) {
	for _, l := range layouts {
		if l.name != name {
			continue
		}
		c := Config{Topo: paperMesh, RouterLatency: 2, Channels: l.ch}
		if l.minVL > 0 {
			w := noc.ControlBytes + payloadBytes
			kind, err := wire.VLForWidth(w)
			if err != nil || w < l.minVL {
				return Config{}, fmt.Errorf("layout %s carries %d control bytes and a compressed address on %d-5 byte VL-Wires (Table 3): the scheme does not compress addresses to %d-%d bytes (it sends %d)",
					name, noc.ControlBytes, l.minVL, l.minVL-noc.ControlBytes, 5-noc.ControlBytes, payloadBytes)
			}
			c.Channels[PlaneVL] = ChannelConfig{Kind: kind, WidthBytes: w}
		}
		return c, nil
	}
	return Config{}, fmt.Errorf("unknown link layout %q (have baseline, vlb, lpw, vlbpw)", name)
}

// ReplyPartitioning reports whether the named layout runs the Flores et
// al. [9] extension, data replies split into a critical-word partial
// and a relaxed full line: the layouts with a PW plane do, whose
// PW-Wires carry the relaxed lines. The L+PW layout has no fast path
// for critical long messages, so it needs it; the combined VL+B+PW
// layout is designed around it.
func ReplyPartitioning(layout string) bool {
	for _, l := range layouts {
		if l.name == layout {
			return l.ch[PlanePW].WidthBytes > 0
		}
	}
	return false
}

// Observer receives physical activity for energy accounting. Implemented
// by energy.Meter; a nil observer disables accounting.
type Observer interface {
	// LinkTraversal is called once per message per link: the message's
	// payload bits cross one wire.LinkLengthM link of kind wires in
	// flits flits.
	LinkTraversal(kind wire.Kind, msgBytes int, flits noc.FlitCount)
	// RouterHop is called once per message per router traversed.
	RouterHop(msgBytes int, flits noc.FlitCount)
}

// channel is the mutable state of one wire plane of one directed link,
// the 16 bytes a hop reads and writes. The plane's constants (wire
// kind, width, traversal cycles) are the same on every link, so the
// Network keeps them once.
type channel struct {
	nextFree sim.Time      // first cycle a new head flit may enter
	flits    stats.Counter // flit-cycles carried: traffic and utilization
}

// link is one directed link between adjacent routers. id is its
// structural id from*nodes+to, kept only as the key of its fault
// streams and trace tracks; the link's index in Network.links is its
// dense id, the one the routing tables store. Its channel state lives
// in Network.ch, apart from the endpoints a hop never reads.
type link struct {
	from, to int
	id       int
}

// chanAt returns the index of plane p of the link with dense id id in
// Network.ch and Network.flitFaults: link-major, numPlanes entries per
// link.
func chanAt(id int32, p Plane) int { return int(id)*int(numPlanes) + int(p) }

// Handler consumes messages delivered at a tile. The *noc.Message points
// into the network's in-flight state and is valid only during the call:
// a handler that keeps the message must copy the value.
type Handler func(*sim.Kernel, *noc.Message)

// Network is the switched interconnect over a Topology.
type Network struct {
	k    *sim.Kernel
	topo Topology
	// nodes caches topo.Nodes() for the hot linkIndex arithmetic.
	nodes    int
	cfg      Config
	obs      Observer
	handlers []Handler

	// links holds every directed link in the topology's canonical
	// Links() order. A slice (not a map) so every iteration is in
	// deterministic link order — map iteration order would vary run to
	// run.
	links []link
	// ch holds every channel's state, chanAt(id, plane) for the link
	// with dense id id: the only per-link memory a fault-free hop
	// touches (DESIGN.md §16.10).
	ch []channel
	// wireCycles is each plane's head traversal latency.
	wireCycles [numPlanes]sim.Time
	// stalls holds each router's stall stream and flitFaults each
	// channel's transient-error stream, indexed like ch (fault
	// injection only: both stay nil without an injector).
	stalls     []fault.Stream
	flitFaults []fault.Stream

	inFlight int

	// Per-class latency statistics (message inject -> tail delivery).
	// Each histogram keeps the exact running mean beside its buckets.
	latHist [noc.NumClasses]*stats.Histogram
	byPlane [numPlanes]stats.Counter
	msgs    [noc.NumClasses]stats.Counter
	bytes   [noc.NumClasses]stats.Counter
	hopWait stats.Mean // queueing cycles per hop, congestion signal

	// planeFlits accumulates flit-cycles per plane across all links,
	// the occupancy time series the tracer's counter poller samples.
	planeFlits [numPlanes]stats.Counter
	// breakdown decomposes delivered-message latency exactly (obs.go).
	breakdown [noc.NumClasses]LatencyBreakdown

	tracer *obs.Tracer

	// free is the transit freelist: delivered and dropped messages
	// return their in-flight state here and Send reuses it, so steady
	// state allocates no transit structs (and none of the prebound
	// continuation closures they carry). A transit's lifetime is the
	// message's flight time, which varies with route, contention and
	// retries, so no fixed-delay queue can hold it. Before pooling, the
	// per-message transit was +5.7% of the run's allocations
	// (BenchmarkObsOverhead/disabled, 2026-08).
	free *transit
	// Routing tables (DESIGN.md §16.9, §16.10). Routes are XY dimension
	// order and a step on an axis depends only on the two coordinates on
	// that axis (Topology.Step), so each hop computes its link and no
	// route is kept per router pair. On a w x h grid, stepX[x*w+dx] is
	// next<<8 | port for the column next after x on the way to column
	// dx, where port is next's index among the columns one step from x,
	// ascending, and stepY[y*h+dy] likewise for rows. A router has
	// portsX row ports and then its column ports, stride in all:
	// out[(y*w+x)*stride+port] is the dense id of the link from router
	// (x, y) through that output port (row port p at p, column port p at
	// portsX+p), -1 where the router has no such port. tileAt[t] is the
	// position of tile t's router.
	w, h           int32
	portsX, stride int32
	stepX, stepY   []int32
	out            []int32
	tileAt         []pos

	// inj, when non-nil, is the fault-injection source (DESIGN.md §11).
	// Fault accounting below stays zero without an injector.
	inj        *fault.Injector
	crcErrors  stats.Counter // corrupted traversals detected by link CRC
	retries    stats.Counter // retransmissions scheduled (crcErrors - dropped)
	retryFlits stats.Counter // flits burned by corrupted traversals
	dropped    stats.Counter // messages dropped on retry-budget exhaustion
	stallInj   stats.Counter // injected router-stall cycles
	outageWait stats.Counter // cycles transmissions waited out plane outages
	// faultErr records the first retry-budget exhaustion; the system
	// surfaces it as the run's explicit error (livelock protection).
	faultErr error
}

// The fault package mirrors this package's plane ordering without
// importing it; a drifting constant would silently misdirect BER and
// outage draws, so pin the correspondence at compile time.
var (
	_ = [1]struct{}{}[int(PlaneB)-fault.PlaneB]
	_ = [1]struct{}{}[int(PlaneVL)-fault.PlaneVL]
	_ = [1]struct{}{}[int(PlanePW)-fault.PlanePW]
	_ = [1]struct{}{}[int(numPlanes)-fault.NumPlanes]
)

// New builds a network on kernel k. obs may be nil. A configuration
// Validate rejects panics.
func New(k *sim.Kernel, cfg Config, obs Observer) *Network {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("mesh: %v", err))
	}
	topo := cfg.Topo
	nodes := topo.Nodes()
	xs, ys := topo.axis(topo.w), topo.axis(topo.h)
	links := topo.links(xs.next, ys.next)
	n := &Network{
		k:        k,
		topo:     topo,
		nodes:    nodes,
		cfg:      cfg,
		obs:      obs,
		handlers: make([]Handler, topo.Tiles()),
		links:    make([]link, len(links)),
		ch:       make([]channel, len(links)*int(numPlanes)),
	}
	for c := range n.latHist {
		// 2-cycle buckets up to 512 cycles; congested tails overflow
		// into the exact-max tracking.
		n.latHist[c] = stats.NewHistogram(256, 2)
	}
	for p := Plane(0); p < numPlanes; p++ {
		if cfg.Channels[p].WidthBytes > 0 {
			cycles := wire.LatencyCycles(cfg.Channels[p].Kind)
			if cfg.LinkCyclesScale > 0 {
				cycles = scaledCycles(cycles, cfg.LinkCyclesScale)
			}
			n.wireCycles[p] = sim.Time(cycles)
		}
	}
	for id, l := range links {
		n.links[id] = link{from: l.From, to: l.To, id: l.From*nodes + l.To}
	}
	n.buildRoutes(xs, ys)
	return n
}

// buildRoutes fills the routing tables from the topology's route rule
// tabulated on each axis, its tile attachment and its links: one
// position per tile, then one write per link. Port p of a router on an
// axis leads to its p-th coordinate one Step away, ascending, so every
// link has a port.
func (n *Network) buildRoutes(xs, ys axisTable) {
	n.w, n.h = int32(n.topo.Width()), int32(n.topo.Height())
	n.stepX, n.portsX = xs.steps, xs.width
	n.stepY, n.stride = ys.steps, xs.width+ys.width
	n.out = make([]int32, n.nodes*int(n.stride))
	for i := range n.out {
		n.out[i] = -1
	}
	n.tileAt = make([]pos, n.topo.Tiles())
	for tile := range n.tileAt {
		n.tileAt[tile] = n.posOf(n.topo.NodeOf(tile))
	}
	// The loop reads the lists through locals: through xs and ys, the
	// 1024-tile slim network (63,488 links) built about 4% slower.
	xn, yn := xs.next, ys.next
	for id, l := range n.links {
		from, to := n.posOf(l.from), n.posOf(l.to)
		port, _ := slices.BinarySearch(xn[from.x], int(to.x))
		if from.y != to.y {
			port, _ = slices.BinarySearch(yn[from.y], int(to.y))
			port += int(n.portsX)
		}
		n.out[l.from*int(n.stride)+port] = int32(id)
	}
}

// maxAxisPorts bounds a coordinate's ports on one axis: a port number
// lives in the low byte of a step entry. NewTopology keeps every
// topology within it.
const maxAxisPorts = 255

// maxRouters bounds a topology's routers so that the link table, at
// most 2*maxAxisPorts entries per router, stays indexable by int32.
const maxRouters = math.MaxInt32 / (2 * maxAxisPorts)

// pos is a router's grid position: router y*w+x.
type pos struct{ x, y int32 }

// posOf returns a router's grid position.
func (n *Network) posOf(router int) pos {
	return pos{x: int32(router) % n.w, y: int32(router) / n.w}
}

// nextLink returns the dense id of the link a message at router (x, y)
// crosses next on its way to router (dx, dy), and the coordinates of
// the router at its far end: the column steps first, then the row. One
// step-table load names the output port, one link-table load its link.
// Scalar coordinates keep it within the inliner's budget. Asking at the
// destination is a bug, never recoverable.
func (n *Network) nextLink(x, y, dx, dy int32) (id, nx, ny int32) {
	port := (y*n.w + x) * n.stride
	var s int32
	if x != dx {
		s = n.stepX[x*n.w+dx]
		x = s >> 8
	} else {
		if y == dy {
			panic("mesh: zero-length route")
		}
		s = n.stepY[y*n.h+dy]
		y = s >> 8
		port += n.portsX
	}
	return n.out[port+s&0xff], x, y
}

// scaledCycles scales a channel's wire-traversal latency, rounding up
// with a float-fuzz-tolerant ceiling (minimum 1 cycle). A plain
// math.Ceil on the raw product over-rounds exact factors: 5 cycles at
// scale 0.2 computes 1.0000000000000002 in float64, which must still
// mean 1 cycle, not 2 (the old `+ 0.999999` ad-hoc ceiling got this
// wrong; fixed under SimVersion v4). Config.Validate keeps the product
// within maxWireCycles, so the conversion to int is exact.
func scaledCycles(cycles int, scale float64) int {
	const fuzz = 1e-9
	scaled := int(math.Ceil(float64(cycles)*scale - fuzz))
	if scaled < 1 {
		return 1
	}
	return scaled
}

// Topology returns the network's topology.
func (n *Network) Topology() Topology { return n.topo }

// SetHandler installs the delivery callback for a tile.
func (n *Network) SetHandler(tile int, h Handler) {
	n.handlers[tile] = h
}

// InFlight returns the number of messages currently traversing the mesh.
func (n *Network) InFlight() int { return n.inFlight }

// HasPlane reports whether the configuration includes the plane.
func (n *Network) HasPlane(p Plane) bool { return n.cfg.Channels[p].WidthBytes > 0 }

// SetInjector attaches a fault injector and derives the fault streams
// the links and routers own. Must be called before the first Send; a
// nil injector (the default) keeps every fault hook a single pointer
// check and the simulation bit-identical to a build without the fault
// subsystem.
func (n *Network) SetInjector(in *fault.Injector) {
	n.inj = in
	if in == nil {
		return
	}
	n.stalls = make([]fault.Stream, n.nodes)
	for r := range n.stalls {
		n.stalls[r] = *in.StallStream(r)
	}
	n.flitFaults = make([]fault.Stream, len(n.ch))
	for id, l := range n.links {
		for p := Plane(0); p < numPlanes; p++ {
			if n.HasPlane(p) {
				n.flitFaults[chanAt(int32(id), p)] = *in.FlitStream(l.id, int(p))
			}
		}
	}
}

// FaultsEnabled reports whether a fault injector is attached.
func (n *Network) FaultsEnabled() bool { return n.inj != nil }

// PlaneUp reports whether the plane exists and is not inside an
// injected outage window at the current cycle. The message manager
// consults it at injection time to fail critical traffic over from an
// out VL plane to the bulk plane.
func (n *Network) PlaneUp(p Plane) bool {
	if !n.HasPlane(p) {
		return false
	}
	return n.inj == nil || !n.inj.PlaneDown(int(p), uint64(n.k.Now()))
}

// FaultError returns the first retry-budget exhaustion of the run, or
// nil. A non-nil value means at least one message was dropped: the
// protocol above has lost a transition and the run's results are
// meaningless, so cmp.System.Run surfaces this as the run error.
func (n *Network) FaultError() error { return n.faultErr }

// PlaneWidth returns the channel width of a plane in bytes (0 if absent).
func (n *Network) PlaneWidth(p Plane) int { return n.cfg.Channels[p].WidthBytes }

// Send injects a copy of *m; the caller keeps m. The message must have
// SizeBytes set and, if m.VL, the VL plane must exist and the message
// must fit policy-wise (the message manager guarantees this; the mesh
// enforces only that the plane exists).
func (n *Network) Send(m *noc.Message) {
	if err := m.Validate(n.topo.Tiles()); err != nil {
		panic(fmt.Sprintf("mesh: refusing malformed message: %v", err))
	}
	plane := PlaneB
	switch {
	case m.VL && m.PW:
		panic(fmt.Sprintf("mesh: message %v requests both VL and PW planes", m.Type))
	case m.VL:
		plane = PlaneVL
	case m.PW:
		plane = PlanePW
	}
	if !n.HasPlane(plane) {
		panic(fmt.Sprintf("mesh: message %v requests absent plane %v", m.Type, plane))
	}
	src, dst := n.tileAt[m.Src], n.tileAt[m.Dst]
	n.inFlight++
	injected := n.k.Now()
	flits := noc.Flits(m.SizeBytes, n.cfg.Channels[plane].WidthBytes)
	n.byPlane[plane].Inc()
	var traceID uint64
	if n.tracer != nil {
		if id, sampled := n.tracer.NextID(); sampled {
			traceID = id
			n.tracer.Begin(obs.PidMessages, id, m.Type.String(),
				classSlug(noc.ClassOf(m.Type)), uint64(injected))
		}
	}
	t := n.newTransit(m, dst, injected, flits, plane, traceID)
	if src == dst {
		// Same-router tiles (concentrated mesh only): the message
		// crosses the local crossbar — one router pipeline plus tail
		// serialization — with no link, no wire flight, and no channel
		// contention. No link is crossed, so the latency breakdown stays
		// exact (hops = 0, Wire = 0).
		if n.obs != nil {
			n.obs.RouterHop(m.SizeBytes, flits)
		}
		n.k.ScheduleAt(injected+sim.Time(n.cfg.RouterLatency)+sim.Time(flits-1), t.deliverFn)
		return
	}
	// Route the first hop here; each hop then routes the next one.
	t.link, t.to.x, t.to.y = n.nextLink(src.x, src.y, dst.x, dst.y)
	n.hop(t)
}

// transit is one message's in-flight state, taken from the Network's
// freelist at Send so the per-hop event closures capture a single
// pointer instead of the whole argument list (the hop path dominates
// the simulator's allocation volume). The kernel is single-threaded,
// so hops may mutate it in place.
//
// Every field hop and arrive read or write comes first and fits in the
// first 64 bytes, one host cache line (TestTransitHopFieldsShareALine);
// the message and the retry, trace and freelist fields follow.
type transit struct {
	// link is the link the head flit crosses next and to the router at
	// its far end, both computed one hop ahead (lookahead routing); link
	// is -1 once the head is bound for dst, the destination router.
	// hops counts the links crossed so far.
	to, dst    pos
	link, hops int32
	flits      noc.FlitCount
	plane      Plane
	// waited accumulates output-channel queueing across hops so
	// delivery can decompose the end-to-end latency exactly.
	waited sim.Time
	// arriveFn is the prebound hop tail: the head flit reached the
	// next router.
	arriveFn sim.Event
	// size is m.SizeBytes, the wire size each hop charges and corrupts.
	size int32

	// m is the network's own copy of the message.
	m        noc.Message
	injected sim.Time
	// traceID is the sampled lifecycle span id (0 when untraced or
	// unsampled).
	traceID uint64
	// attempts counts CRC-failed traversals of this message (fault
	// injection only); it drives the bounded exponential backoff and
	// the retry budget.
	attempts int
	// retryCycles accumulates the full duration of failed traversal
	// attempts — router pipeline, channel wait, wire flight, NACK
	// round trip and backoff — so the latency breakdown stays an
	// exact decomposition under retransmission (obs.go).
	retryCycles sim.Time

	// Prebound continuations, arriveFn's siblings, allocated once when
	// the transit struct is first created and reused across pool
	// generations: they capture only the (stable) transit pointer, so a
	// recycled message performs zero closure allocations on the hop
	// path.
	deliverFn sim.Event // tail serialized at the destination
	hopFn     sim.Event // retransmission entry (fault injection)
	dropFn    sim.Event // retry-budget exhaustion (fault injection)
	// next links the freelist.
	next *transit
}

// newTransit takes a transit from the freelist (or allocates the pool's
// next entry) and initializes every in-flight field, copying *m. dst is
// the destination router; the transit has no link to cross until Send
// routes its first hop.
func (n *Network) newTransit(m *noc.Message, dst pos, injected sim.Time, flits noc.FlitCount, plane Plane, traceID uint64) *transit {
	t := n.free
	if t == nil {
		// Pool miss: one transit and its four continuation closures,
		// reused for the rest of the run.
		t = &transit{}
		t.arriveFn = func() { n.arrive(t) }
		t.deliverFn = func() { n.deliver(t) }
		t.hopFn = func() { n.hop(t) }
		t.dropFn = func() { n.drop(t) }
	} else {
		n.free = t.next
		t.next = nil
	}
	t.m, t.link, t.dst, t.hops, t.size = *m, -1, dst, 0, int32(m.SizeBytes)
	t.injected, t.waited, t.flits, t.plane = injected, 0, flits, plane
	t.traceID, t.attempts, t.retryCycles = traceID, 0, 0
	return t
}

// recycle returns a finished transit to the freelist, poisoned until
// the next Send takes it: its message has a negative type, source and
// destination and a zero size, and its link is -2, no link. A use of
// the transit before then panics on the link index or the type's class,
// or counts zero bytes. The negative type also marks the transit free,
// so a second recycle panics instead of handing one transit to two
// messages.
func (n *Network) recycle(t *transit) {
	if t.m.Type < 0 {
		panic("mesh: transit recycled twice")
	}
	t.m = noc.Message{Type: -1, Src: -1, Dst: -1}
	t.link = -2
	t.next = n.free
	n.free = t
}

// hop models the head flit crossing t.link, the link the router before
// (or Send) routed it onto, so the channel's state is the first thing
// it loads: no table load stands between the transit and the channel.
// It runs once per hop, the simulator's innermost loop. Under fault
// injection the traversal may be corrupted (caught by the link CRC at
// the receiving router and NACKed back — see retryHop) or delayed by an
// injected router stall or plane outage.
func (n *Network) hop(t *transit) {
	entered := n.k.Now()
	id := t.link
	c := chanAt(id, t.plane)
	ch := &n.ch[c]
	// Router pipeline (plus any injected stall), then wait for the
	// output channel and for any plane outage to lift: an out plane
	// accepts no new transmissions until its window ends.
	var stall sim.Time
	if n.inj != nil {
		stall = sim.Time(n.inj.Stall(&n.stalls[n.links[id].from]))
		if stall > 0 {
			n.stallInj.Add(uint64(stall))
		}
	}
	ready := n.k.Now() + sim.Time(n.cfg.RouterLatency) + stall
	start := ready
	if ch.nextFree > start {
		start = ch.nextFree
	}
	if n.inj != nil && n.inj.PlaneDown(int(t.plane), uint64(start)) {
		if end := sim.Time(n.inj.OutageEnd()); end > start {
			n.outageWait.Add(uint64(end - start))
			start = end
		}
	}
	wait := start - ready
	n.hopWait.Observe(float64(wait))
	ch.nextFree = start + sim.Time(t.flits)
	ch.flits.Add(uint64(t.flits))
	n.planeFlits[t.plane].Add(uint64(t.flits))
	if n.obs != nil {
		n.obs.RouterHop(int(t.size), t.flits)
		n.obs.LinkTraversal(n.cfg.Channels[t.plane].Kind, int(t.size), t.flits)
	}
	if n.tracer != nil && t.traceID != 0 {
		n.traceLinkOccupancy(&t.m, t.plane, &n.links[id], start, t.flits)
	}
	headArrives := start + n.wireCycles[t.plane]
	if n.inj != nil && n.inj.Corrupt(&n.flitFaults[c], int(t.plane), int(t.size)*8) {
		n.retryHop(t, entered, headArrives)
		return
	}
	// Clean traversal: stalls and channel/outage waits count as
	// queueing in the latency decomposition, and the head flit is now
	// bound for the link's far router, which routes the next hop now
	// (lookahead routing, DESIGN.md §16.10). A CRC-failed traversal
	// above retries the same link.
	t.waited += wait + stall
	t.hops++
	if t.to != t.dst {
		t.link, t.to.x, t.to.y = n.nextLink(t.to.x, t.to.y, t.dst.x, t.dst.y)
	} else {
		t.link = -1
	}
	n.k.ScheduleAt(headArrives, t.arriveFn)
}

// arrive fires when the head flit reaches the far end of the link hop
// sent it over: either the final tail-serialization delay before
// delivery (no next link: the router is the destination), or the next
// hop. Nothing mutates the transit between the schedule in hop and
// this callback.
func (n *Network) arrive(t *transit) {
	if t.link < 0 {
		// Final router pipeline plus tail serialization.
		deliver := n.k.Now() + sim.Time(n.cfg.RouterLatency) + sim.Time(t.flits-1)
		n.k.ScheduleAt(deliver, t.deliverFn)
		return
	}
	n.hop(t)
}

// retryHop handles a corrupted traversal: the receiving router's link
// CRC rejects the message when its tail arrives, a NACK flies back
// over the reverse channel, and the sender retransmits after a
// bounded exponential backoff — unless the message has exhausted its
// retry budget, in which case it is dropped and the run fails with an
// explicit error (the protocol above has no recovery for a lost
// message; failing loudly beats livelocking the directory).
//
// The whole failed attempt — from hop entry through NACK and backoff
// — is charged to the transit's retryCycles, keeping the delivered
// latency decomposition exact (LatencyBreakdown.Retry).
func (n *Network) retryHop(t *transit, entered, headArrives sim.Time) {
	n.crcErrors.Inc()
	n.retryFlits.Add(uint64(t.flits))
	// The CRC verdict lands when the tail arrives at the receiver.
	tail := headArrives + sim.Time(t.flits-1)
	t.attempts++
	if n.tracer != nil && t.traceID != 0 {
		tid := n.links[t.link].id*int(numPlanes) + int(t.plane)
		n.tracer.Instant(obs.PidLinks, tid, "crc-nack:"+t.m.Type.String(), "fault", uint64(tail))
	}
	if t.attempts > n.inj.RetryLimit() {
		// The prebound drop continuation finds the failing link in the
		// transit; nothing touches a doomed transit between here and
		// the scheduled drop.
		n.k.ScheduleAt(tail, t.dropFn)
		return
	}
	n.retries.Inc()
	// NACK round trip over the reverse channel, then back off.
	retryAt := tail + n.wireCycles[t.plane] + sim.Time(fault.Backoff(t.attempts))
	t.retryCycles += retryAt - entered
	n.k.ScheduleAt(retryAt, t.hopFn)
}

// drop removes a message whose retry budget is exhausted and records
// the run-fatal fault error (first drop wins; later drops only count).
func (n *Network) drop(t *transit) {
	n.inFlight--
	n.dropped.Inc()
	if n.faultErr == nil {
		l := &n.links[t.link]
		n.faultErr = fmt.Errorf("mesh: %v %d->%d dropped on link %d->%d at cycle %d: retry budget (%d) exhausted",
			t.m.Type, t.m.Src, t.m.Dst, l.from, l.to, n.k.Now(), n.inj.RetryLimit())
	}
	if n.tracer != nil && t.traceID != 0 {
		n.tracer.End(obs.PidMessages, t.traceID, t.m.Type.String(),
			classSlug(noc.ClassOf(t.m.Type)), uint64(n.k.Now()),
			[]obs.Arg{{Key: "dropped", Val: 1}, {Key: "attempts", Val: float64(t.attempts)}})
	}
	n.recycle(t)
}

func (n *Network) deliver(t *transit) {
	m := &t.m
	n.inFlight--
	class := noc.ClassOf(m.Type)
	n.latHist[class].Observe(float64(n.k.Now() - t.injected))
	n.msgs[class].Inc()
	n.bytes[class].Add(uint64(m.SizeBytes))
	n.recordBreakdown(t, class)
	h := n.handlers[m.Dst]
	if h == nil {
		panic(fmt.Sprintf("mesh: no handler at tile %d for %v", m.Dst, m.Type))
	}
	// The handler reads the message in place, so the transit recycles
	// only once it returns.
	h(n.k, m)
	n.recycle(t)
}

// Summary aggregates network statistics.
type Summary struct {
	Messages       [noc.NumClasses]uint64
	Bytes          [noc.NumClasses]uint64
	MeanLatency    [noc.NumClasses]float64
	PlaneMessages  [numPlanes]uint64
	MeanHopQueuing float64
	TotalFlits     uint64

	// Link-level fault activity (all zero without a fault injector):
	// CRC-detected corrupted traversals, scheduled retransmissions,
	// flits burned by failed traversals, and messages dropped on
	// retry-budget exhaustion (any nonzero Dropped fails the run).
	CRCErrors  uint64
	Retries    uint64
	RetryFlits uint64
	Dropped    uint64
}

// Summary returns the accumulated statistics.
func (n *Network) Summary() Summary {
	var s Summary
	for c := 0; c < int(noc.NumClasses); c++ {
		s.Messages[c] = n.msgs[c].Value()
		s.Bytes[c] = n.bytes[c].Value()
		s.MeanLatency[c] = n.latHist[c].Mean()
	}
	for p := 0; p < int(numPlanes); p++ {
		s.PlaneMessages[p] = n.byPlane[p].Value()
	}
	s.MeanHopQueuing = n.hopWait.Value()
	s.CRCErrors = n.crcErrors.Value()
	s.Retries = n.retries.Value()
	s.RetryFlits = n.retryFlits.Value()
	s.Dropped = n.dropped.Value()
	for i := range n.ch {
		s.TotalFlits += n.ch[i].flits.Value()
	}
	return s
}

// TotalMessages returns the delivered message count across classes.
func (s Summary) TotalMessages() uint64 {
	var t uint64
	for _, v := range s.Messages {
		t += v
	}
	return t
}

// Sub returns the summary of the window between prev and s: counters are
// differenced; the latency means (not decomposable) keep the full-run
// values.
func (s Summary) Sub(prev Summary) Summary {
	out := s
	for c := range out.Messages {
		out.Messages[c] -= prev.Messages[c]
		out.Bytes[c] -= prev.Bytes[c]
	}
	for p := range out.PlaneMessages {
		out.PlaneMessages[p] -= prev.PlaneMessages[p]
	}
	out.TotalFlits -= prev.TotalFlits
	out.CRCErrors -= prev.CRCErrors
	out.Retries -= prev.Retries
	out.RetryFlits -= prev.RetryFlits
	out.Dropped -= prev.Dropped
	return out
}

// LatencyPercentile returns the p-th percentile (p in [0,1]) of
// end-to-end latency for a message class, at 2-cycle resolution.
func (n *Network) LatencyPercentile(c noc.Class, p float64) float64 {
	return n.latHist[c].Percentile(p)
}

// StaticWireStats describes the standing wire resources for leakage
// accounting: per plane, the number of wires and their kind across all
// directed links, each wire.LinkLengthM long.
type StaticWireStats struct {
	Kind  wire.Kind
	Wires int // total across all links
}

// StaticWires returns the standing wire inventory per plane.
func (n *Network) StaticWires() []StaticWireStats {
	nLinks := len(n.links)
	var out []StaticWireStats
	for p := Plane(0); p < numPlanes; p++ {
		cfg := n.cfg.Channels[p]
		if cfg.WidthBytes == 0 {
			continue
		}
		out = append(out, StaticWireStats{
			Kind:  cfg.Kind,
			Wires: cfg.WidthBytes * 8 * nLinks,
		})
	}
	return out
}

// Links returns the number of directed links in the mesh.
func (n *Network) Links() int { return len(n.links) }
