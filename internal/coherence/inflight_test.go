package coherence

import (
	"math/rand"
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/core"
	"tilesim/internal/fault"
	"tilesim/internal/mesh"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
)

// Protocol messages are values: the Sender gets its own copy, and the
// *noc.Message that Deliver receives points into the carrier's
// in-flight state (a pooled mesh transit, or a tile-local delay-queue
// record) and is valid only during the call. The tests in this file
// drive the protocol through the real message manager and mesh, whose
// transit freelist is the one pool every remote message passes
// through, and check that contract from both sides.

// poisoned overwrites every delivered message once Deliver returns, so
// a protocol that kept the pointer past the call would read garbage.
var poisoned = noc.Message{Src: -1, Dst: -1, Addr: ^uint64(0), Txn: ^uint64(0), AckCount: -1, ReplyTo: -1}

// churnTag marks the messages a test injects beside the protocol's
// own; protocol transaction ids never reach it.
const churnTag = uint64(1) << 63

// carrier wires a 16-tile protocol through core.Manager onto a
// heterogeneous 4x4 mesh whose bit-error rate forces retransmissions.
// It records every sent value once the manager has filled in its wire
// fields, and checks each delivery against the values still in flight.
type carrier struct {
	t   *testing.T
	k   *sim.Kernel
	p   *Protocol
	net *mesh.Network
	// inFlight counts the sent values not yet delivered; two identical
	// messages may legitimately be in flight at once.
	inFlight map[noc.Message]int
	// remote counts protocol messages in flight on the network.
	remote int
	// peak is the most messages the network held after any send.
	peak int
	// onSend, when set, runs after every protocol send.
	onSend func()
}

func newCarrier(t *testing.T) *carrier {
	t.Helper()
	c := &carrier{t: t, k: sim.NewKernel(), inFlight: map[noc.Message]int{}}
	cfg, err := mesh.Heterogeneous(5)
	if err != nil {
		t.Fatal(err)
	}
	c.net = mesh.New(c.k, cfg, nil)
	in, err := fault.NewInjector(fault.Config{BER: 1e-3, RetryLimit: 64}, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.net.SetInjector(in)
	var mgr *core.Manager
	c.p = New(c.k, DefaultConfig(), func(m noc.Message) {
		mgr.Send(&m)
		c.sent(m)
		if c.onSend != nil {
			c.onSend()
		}
	})
	mgr = core.New(c.k, c.net, core.Config{Codec: compress.NewPerfect(2), VLWidthBytes: 5}, nil, c.deliver)
	return c
}

// sent records a value the manager or the network now holds.
func (c *carrier) sent(m noc.Message) {
	c.inFlight[m]++
	if m.Txn&churnTag == 0 && m.Src != m.Dst {
		c.remote++
	}
	c.peak = max(c.peak, c.net.InFlight())
}

// deliver checks a delivered message against the values in flight,
// hands protocol traffic to Deliver and poisons the message after it.
func (c *carrier) deliver(m *noc.Message) {
	got := *m
	switch n := c.inFlight[got]; n {
	case 0:
		c.t.Fatalf("delivered %+v, which no sender has in flight", got)
	case 1:
		delete(c.inFlight, got)
	default:
		c.inFlight[got] = n - 1
	}
	if got.Txn&churnTag == 0 {
		if got.Src != got.Dst {
			c.remote--
		}
		c.p.Deliver(m)
	}
	*m = poisoned
}

// run has every tile issue a chain of ops random loads and stores to a
// few hot blocks, all tiles at once, then drains the chip and checks
// that every access finished and every sent message arrived.
func (c *carrier) run(rng *rand.Rand, ops int) {
	c.t.Helper()
	tiles := c.p.Config().Tiles
	blocks := []uint64{0x1000, 0x2000, 0x3000, 0x4000}
	finished := 0
	var launch func(tile, left int)
	launch = func(tile, left int) {
		if left == 0 {
			finished++
			return
		}
		addr := blocks[rng.Intn(len(blocks))] + uint64(rng.Intn(4))*64
		next := func() { launch(tile, left-1) }
		if rng.Intn(2) == 0 {
			c.p.L1(tile).Store(addr, next)
		} else {
			c.p.L1(tile).Load(addr, next)
		}
	}
	for tile := 0; tile < tiles; tile++ {
		launch(tile, ops)
	}
	c.k.Run(nil)
	if err := c.net.FaultError(); err != nil {
		c.t.Fatal(err)
	}
	if finished != tiles {
		c.t.Fatalf("only %d/%d tiles finished their accesses", finished, tiles)
	}
	if n := c.p.OutstandingTransactions(); n != 0 {
		c.t.Fatalf("%d transactions outstanding after drain", n)
	}
	if len(c.inFlight) != 0 {
		c.t.Fatalf("%d sent messages never delivered", len(c.inFlight))
	}
}

// checkReuse fails unless the network retransmitted and carried more
// messages than it can ever have allocated transits for. A transit is
// allocated only when the freelist is empty, and at most peak+1 are
// ever live: a handler's own transit no longer counts as in flight,
// and a send from inside the handler adds one.
func (c *carrier) checkReuse() {
	c.t.Helper()
	s := c.net.Summary()
	delivered := 0
	for _, n := range s.Messages {
		delivered += int(n)
	}
	c.t.Logf("%d network deliveries, peak %d in flight, %d retransmissions",
		delivered, c.peak, s.Retries)
	if s.Retries == 0 {
		c.t.Fatal("no retransmissions; the BER did not exercise the retry path")
	}
	if delivered <= c.peak+1 {
		c.t.Fatalf("%d deliveries with up to %d transits live: transits were not reused, so the check proved nothing",
			delivered, c.peak+1)
	}
}

// TestPooledMessagesNeverAliasInFlight runs random accesses from every
// tile at once through the manager and a mesh that retransmits, and
// checks that each delivery is a value some sender still has in
// flight: a transit recycled under an in-flight message would deliver
// one value twice and lose another. Each delivered message is poisoned
// once Deliver returns, so a protocol that kept the pointer would act
// on garbage and fail the drain checks. The run must actually reuse
// transits, or the check proves nothing.
func TestPooledMessagesNeverAliasInFlight(t *testing.T) {
	c := newCarrier(t)
	c.run(rand.New(rand.NewSource(11)), 25)
	c.checkReuse()
}

// TestPoolChurnNeverHandsOutInFlightHeaders churns the transit
// freelist while protocol messages are in flight: after every protocol
// send, one to three extra messages of mixed types, sizes and planes
// go straight into the network, taking transits from the freelist and
// returning them on delivery. No churn may take over a transit that
// still carries a protocol message, so every delivery, protocol or
// churn, must be a value still in flight, and the protocol must drain.
// The churn must overlap in-flight protocol traffic and the network
// must reuse transits, or the interleaving proves nothing.
func TestPoolChurnNeverHandsOutInFlightHeaders(t *testing.T) {
	c := newCarrier(t)
	rng := rand.New(rand.NewSource(23))
	shapes := []noc.Message{
		{Type: noc.GetS, SizeBytes: 11},
		{Type: noc.GetX, SizeBytes: 5, Compressed: true, VL: true},
		{Type: noc.Data, DataBytes: 64, SizeBytes: 67},
		{Type: noc.InvAck, SizeBytes: 3, VL: true},
		{Type: noc.WriteBack, DataBytes: 64, SizeBytes: 67},
	}
	tiles := c.p.Config().Tiles
	churned, overlapped := 0, 0
	c.onSend = func() {
		for i := 0; i < 1+rng.Intn(3); i++ {
			m := shapes[rng.Intn(len(shapes))]
			m.Src = rng.Intn(tiles)
			m.Dst = (m.Src + 1 + rng.Intn(tiles-1)) % tiles
			m.Addr = uint64(rng.Intn(1<<20)) << 6
			churned++
			m.Txn = churnTag | uint64(churned)
			if c.remote > 0 {
				overlapped++
			}
			c.net.Send(&m)
			c.sent(m)
		}
	}
	c.run(rng, 20)
	t.Logf("%d churn messages, %d sent with protocol messages in flight", churned, overlapped)
	if overlapped == 0 {
		t.Fatal("no churn ran while protocol messages were in flight; the interleaving proved nothing")
	}
	c.checkReuse()
}
