package mesh

import (
	"testing"
	"unsafe"

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
// its handler returned would be poisoned, or overwritten by the
// follow-up, under the handler's feet. The run must reuse its transits
// and return them: at the end the freelist holds at least one transit
// and at most one more than the peak in flight (a handler's follow-up
// send takes a transit while the one delivering to that handler is
// still held).
func TestTransitReuseDeliversSentValues(t *testing.T) {
	k := sim.NewKernel()
	cfg := mustLayout("vlb")
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
	if delivered <= peak || transits < 1 || transits > peak+1 {
		t.Fatalf("%d deliveries over %d transits on the freelist (peak %d in flight): want 1 to %d, transits leaked or were not reused",
			delivered, transits, peak, peak+1)
	}
}

// TestTransitHopFieldsShareALine pins the transit's layout: every field
// hop and arrive read or write ends within the first 64 bytes, one host
// cache line.
func TestTransitHopFieldsShareALine(t *testing.T) {
	var tr transit
	fields := []struct {
		name      string
		off, size uintptr
	}{
		{"to", unsafe.Offsetof(tr.to), unsafe.Sizeof(tr.to)},
		{"dst", unsafe.Offsetof(tr.dst), unsafe.Sizeof(tr.dst)},
		{"link", unsafe.Offsetof(tr.link), unsafe.Sizeof(tr.link)},
		{"hops", unsafe.Offsetof(tr.hops), unsafe.Sizeof(tr.hops)},
		{"flits", unsafe.Offsetof(tr.flits), unsafe.Sizeof(tr.flits)},
		{"plane", unsafe.Offsetof(tr.plane), unsafe.Sizeof(tr.plane)},
		{"waited", unsafe.Offsetof(tr.waited), unsafe.Sizeof(tr.waited)},
		{"arriveFn", unsafe.Offsetof(tr.arriveFn), unsafe.Sizeof(tr.arriveFn)},
		{"size", unsafe.Offsetof(tr.size), unsafe.Sizeof(tr.size)},
	}
	for _, f := range fields {
		if end := f.off + f.size; end > 64 {
			t.Errorf("transit.%s spans bytes %d-%d, past the first 64", f.name, f.off, end)
		}
	}
}
