package coherence

import (
	"math/rand"
	"testing"

	"tilesim/internal/fault"
	"tilesim/internal/noc"
)

// Protocol messages are values: the Sender gets its own copy, and the
// *noc.Message that Deliver receives points into the carrier's
// in-flight state (a pooled mesh transit, or a tile-local delay-queue
// record) and is valid only during the call. On the harness's
// interconnect every remote message passes through the mesh's transit
// freelist; the harness checks each delivery against the values still
// in flight and poisons it once Deliver returns, so a protocol that
// kept the pointer would act on garbage.

// TestPoolChurnNeverHandsOutInFlightHeaders churns the transit
// freelist while protocol messages are in flight: before every protocol
// send, one to three extra messages of mixed types, sizes and planes
// go straight into the network, taking transits from the freelist and
// returning them on delivery. No churn may take over a transit that
// still carries a protocol message, so every delivery, protocol or
// churn, must be a value still in flight, and the protocol must drain.
// The churn must overlap in-flight protocol traffic and the network
// must reuse transits, or the interleaving proves nothing.
func TestPoolChurnNeverHandsOutInFlightHeaders(t *testing.T) {
	ts := newTestSystem(t, rig{topo: "mesh", wiring: "vlb", faults: fault.Config{BER: 1e-3, RetryLimit: 64}, seed: 5})
	rng := rand.New(rand.NewSource(23))
	shapes := []noc.Message{
		{Type: noc.GetS, SizeBytes: 11},
		{Type: noc.GetX, SizeBytes: 5, Compressed: true, VL: true},
		{Type: noc.Data, DataBytes: 64, SizeBytes: 67},
		{Type: noc.InvAck, SizeBytes: 3, VL: true},
		{Type: noc.WriteBack, DataBytes: 64, SizeBytes: 67},
	}
	tiles := ts.p.cfg.Tiles
	churned, overlapped := 0, 0
	ts.onSend = func(*noc.Message) bool {
		for i := 0; i < 1+rng.Intn(3); i++ {
			m := shapes[rng.Intn(len(shapes))]
			m.Src = rng.Intn(tiles)
			m.Dst = (m.Src + 1 + rng.Intn(tiles-1)) % tiles
			m.Addr = uint64(rng.Intn(1<<20)) << 6
			churned++
			m.Txn = churnTag | uint64(churned)
			if ts.remote > 0 {
				overlapped++
			}
			ts.inject(m)
		}
		return false
	}
	ts.drive(stress{seed: 23, ops: 20, writes: 2, addr: hotPages})
	t.Logf("%d churn messages, %d sent with protocol messages in flight", churned, overlapped)
	if overlapped == 0 {
		t.Fatal("no churn ran while protocol messages were in flight; the interleaving proved nothing")
	}
	ts.checkReuse(t)
}
