package mesh

import (
	"testing"

	"tilesim/internal/fault"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
)

// TestTransitReuseDeliversSentValues sends a few thousand messages of
// mixed types, sizes and planes, each with a distinct Txn, through a
// network whose BER forces retransmissions, and checks that every
// delivery equals the value sent. The sender reuses one message
// variable for every Send, so the network must carry its own copy; a
// third of the deliveries send a follow-up from inside the handler
// before the delivered value is checked, so a transit recycled before
// its handler returned would be overwritten under the handler's feet.
// The run must actually reuse transits: more deliveries than transits
// ever allocated.
func TestTransitReuseDeliversSentValues(t *testing.T) {
	k := sim.NewKernel()
	cfg, err := Heterogeneous(5)
	if err != nil {
		t.Fatal(err)
	}
	n := New(k, cfg, nil)
	in, err := fault.NewInjector(fault.Config{BER: 1e-3, RetryLimit: 64}, 5)
	if err != nil {
		t.Fatal(err)
	}
	n.SetInjector(in)

	shapes := []noc.Message{
		{Type: noc.GetS, SizeBytes: 11},
		{Type: noc.GetX, SizeBytes: 5, Compressed: true, VL: true},
		{Type: noc.Data, DataBytes: 64, SizeBytes: 67, Relaxed: true},
		{Type: noc.InvAck, SizeBytes: 3, VL: true, AckCount: 2},
		{Type: noc.WriteBack, DataBytes: 64, SizeBytes: 67},
		{Type: noc.Revision, SizeBytes: 3, NoCopy: true},
	}
	const total = 3000
	sent := make(map[uint64]noc.Message, total)
	var msg noc.Message
	nextTxn, peak, delivered := uint64(0), 0, 0
	send := func(i int) {
		nextTxn++
		msg = shapes[i%len(shapes)]
		msg.Src, msg.Dst = i%16, (i*7+3)%16
		if msg.Src == msg.Dst {
			msg.Dst = (msg.Dst + 1) % 16
		}
		msg.Addr, msg.Txn, msg.ReplyTo = uint64(i)<<6, nextTxn, i%16
		sent[nextTxn] = msg
		n.Send(&msg)
		msg = noc.Message{} // the network must not read the caller's copy again
		peak = max(peak, n.InFlight())
	}
	for tile := 0; tile < 16; tile++ {
		n.SetHandler(tile, func(_ *sim.Kernel, got *noc.Message) {
			want, ok := sent[got.Txn]
			if !ok {
				t.Fatalf("delivered unknown or duplicate Txn %d", got.Txn)
			}
			if int(nextTxn) < total && got.Txn%3 == 0 {
				send(int(nextTxn))
			}
			if *got != want {
				t.Fatalf("Txn %d delivered as %+v, sent as %+v", got.Txn, *got, want)
			}
			delete(sent, got.Txn)
			delivered++
		})
	}
	for i := 0; i < total/2; i++ {
		k.RunUntil(sim.Time(2 * i))
		send(i)
	}
	k.Run(nil)

	if err := n.FaultError(); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 0 {
		t.Fatalf("%d messages never delivered", len(sent))
	}
	if s := n.Summary(); s.Retries == 0 {
		t.Fatal("no retransmissions; the BER did not exercise the retry path")
	}
	transits := 0
	for tr := n.free; tr != nil; tr = tr.next {
		transits++
	}
	t.Logf("%d deliveries over %d transits, peak %d in flight, %d retransmissions",
		delivered, transits, peak, n.Summary().Retries)
	if delivered <= peak || transits >= delivered {
		t.Fatalf("%d deliveries over %d transits (peak %d in flight): transits were not reused",
			delivered, transits, peak)
	}
}
