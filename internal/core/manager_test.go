package core

import (
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/mesh"
	"tilesim/internal/noc"
	"tilesim/internal/obs"
	"tilesim/internal/sim"
)

// harness builds a manager over a mesh.Layout network with a recording
// deliver function: the baseline for compress.None, the proposal's
// VL+B layout sized for any other codec. A delivered message is valid
// only during the delivery, so the harness records copies.
type harness struct {
	k         *sim.Kernel
	net       *mesh.Network
	mgr       *Manager
	delivered []noc.Message
}

func newHarness(t *testing.T, codec compress.Codec) *harness {
	t.Helper()
	h := &harness{k: sim.NewKernel()}
	layout := "vlb"
	if _, none := codec.(*compress.None); none {
		layout = "baseline"
	}
	cfg, err := mesh.Layout(layout, codec.CompressedPayloadBytes())
	if err != nil {
		t.Fatal(err)
	}
	h.net = mesh.New(h.k, cfg, nil)
	h.mgr = New(h.k, h.net, codec, nil, func(m *noc.Message) { h.delivered = append(h.delivered, *m) })
	return h
}

func (h *harness) send(t *testing.T, m *noc.Message) noc.Message {
	t.Helper()
	n := len(h.delivered)
	h.mgr.Send(m)
	h.k.Run(nil)
	if len(h.delivered) != n+1 {
		t.Fatalf("message not delivered: %+v", m)
	}
	if h.delivered[n] != *m {
		t.Fatalf("delivered %+v, sent %+v", h.delivered[n], *m)
	}
	return h.delivered[n]
}

func TestBaselineSizesAndPlane(t *testing.T) {
	h := newHarness(t, compress.NewNone())
	m := h.send(t, &noc.Message{Type: noc.GetS, Src: 0, Dst: 5, Addr: 0x1000})
	if m.SizeBytes != 11 || m.Compressed || m.VL {
		t.Fatalf("baseline request: %+v", m)
	}
	d := h.send(t, &noc.Message{Type: noc.Data, Src: 5, Dst: 0, Addr: 0x1000, DataBytes: 64})
	if d.SizeBytes != 67 || d.VL {
		t.Fatalf("baseline data: %+v", d)
	}
}

// coverage reads the manager's compression coverage through its
// mgr.coverage declaration.
func (h *harness) coverage() float64 {
	r := obs.NewRegistry()
	h.mgr.RegisterMetrics(r)
	m, _ := r.Snapshot(h.k.Now()).Get("mgr.coverage")
	return m.Value
}

func TestCompressedRequestRidesVL(t *testing.T) {
	codec := compress.NewDBRC(4, 2, 16)
	h := newHarness(t, codec)
	// First request to a region: miss, uncompressed, B plane.
	m1 := h.send(t, &noc.Message{Type: noc.GetS, Src: 0, Dst: 5, Addr: 0x1_0000})
	if m1.Compressed || m1.SizeBytes != 11 || m1.VL {
		t.Fatalf("first request should be uncompressed on B: %+v", m1)
	}
	// Second request, same 64KB region: compressed to 3+2=5, VL plane.
	m2 := h.send(t, &noc.Message{Type: noc.GetS, Src: 0, Dst: 5, Addr: 0x1_0040})
	if !m2.Compressed || m2.SizeBytes != 5 || !m2.VL {
		t.Fatalf("second request should be 5B compressed on VL: %+v", m2)
	}
	if cov := h.coverage(); cov != 0.5 {
		t.Fatalf("coverage %v, want 0.5", cov)
	}
	if h.mgr.SavedBytes.Value() != 6 {
		t.Fatalf("saved bytes %d, want 6", h.mgr.SavedBytes.Value())
	}
}

func TestCoherenceRepliesRideVLUncompressed(t *testing.T) {
	h := newHarness(t, compress.NewDBRC(4, 2, 16))
	m := h.send(t, &noc.Message{Type: noc.InvAck, Src: 1, Dst: 2, Addr: 0x2000})
	if !m.VL || m.SizeBytes != 3 || m.Compressed {
		t.Fatalf("InvAck should ride VL at 3B uncompressed: %+v", m)
	}
}

func TestNonCriticalNeverRidesVL(t *testing.T) {
	h := newHarness(t, compress.NewDBRC(4, 2, 16))
	// Replacement hint is 3 bytes (fits VL) but non-critical.
	m := h.send(t, &noc.Message{Type: noc.ReplacementHint, Src: 1, Dst: 2, Addr: 0x2000})
	if m.VL {
		t.Fatal("non-critical replacement on VL wires")
	}
	// Revision without data likewise.
	r := h.send(t, &noc.Message{Type: noc.Revision, Src: 1, Dst: 2, Addr: 0x2000})
	if r.VL {
		t.Fatal("revision on VL wires")
	}
}

func TestUncompressedRequestFallsToB(t *testing.T) {
	// 1B-LO codec on a 4B VL channel: a miss (11B) must use B wires.
	codec := compress.NewDBRC(4, 1, 16)
	h := newHarness(t, codec)
	m1 := h.send(t, &noc.Message{Type: noc.GetX, Src: 3, Dst: 9, Addr: 0x5_0000})
	if m1.VL || m1.SizeBytes != 11 {
		t.Fatalf("missed request must be 11B on B: %+v", m1)
	}
	m2 := h.send(t, &noc.Message{Type: noc.GetX, Src: 3, Dst: 9, Addr: 0x5_0040})
	if !m2.VL || m2.SizeBytes != 4 {
		t.Fatalf("hit request must be 4B on VL: %+v", m2)
	}
}

func TestLocalMessagesSkipNetwork(t *testing.T) {
	h := newHarness(t, compress.NewDBRC(4, 2, 16))
	sent := noc.Message{Type: noc.GetS, Src: 3, Dst: 3, Addr: 0x7000}
	var got []noc.Message
	var at sim.Time
	h.mgr.deliver = func(m *noc.Message) { got, at = append(got, *m), h.k.Now() }
	h.mgr.Send(&sent)
	h.k.Run(nil)
	if len(got) != 1 || got[0] != sent {
		t.Fatalf("local delivery %+v, sent %+v", got, sent)
	}
	if at != LocalCycles {
		t.Fatalf("local message delivered at cycle %d, want %d", at, LocalCycles)
	}
	if h.mgr.LocalMsgs.Value() != 1 {
		t.Fatal("local message not counted")
	}
	if h.net.Summary().TotalMessages() != 0 {
		t.Fatal("local message crossed the network")
	}
	if h.mgr.Compressible.Value() != 0 {
		t.Fatal("local message went through the codec")
	}
}

func TestCommandStreamSeparateFromRequests(t *testing.T) {
	codec := compress.NewDBRC(4, 2, 16)
	h := newHarness(t, codec)
	h.send(t, &noc.Message{Type: noc.GetS, Src: 0, Dst: 5, Addr: 0x9_0000})
	// An Inv on the same pair/region uses the command stream: cold miss.
	m := h.send(t, &noc.Message{Type: noc.Inv, Src: 0, Dst: 5, Addr: 0x9_0040})
	if m.Compressed {
		t.Fatal("command stream shared the request stream's structures")
	}
	m2 := h.send(t, &noc.Message{Type: noc.Inv, Src: 0, Dst: 5, Addr: 0x9_0080})
	if !m2.Compressed {
		t.Fatal("command stream did not warm up")
	}
}

func TestPerfectCodecAlwaysVL(t *testing.T) {
	h := newHarness(t, compress.NewPerfect(2))
	for i := 0; i < 5; i++ {
		m := h.send(t, &noc.Message{Type: noc.GetS, Src: 0, Dst: 5, Addr: uint64(0x10000 + i*64)})
		if !m.Compressed || !m.VL || m.SizeBytes != 5 {
			t.Fatalf("perfect codec message %d: %+v", i, m)
		}
	}
	if cov := h.coverage(); cov != 1.0 {
		t.Fatalf("perfect coverage %v", cov)
	}
}

func TestVLFraction(t *testing.T) {
	h := newHarness(t, compress.NewPerfect(2))
	h.send(t, &noc.Message{Type: noc.GetS, Src: 0, Dst: 5, Addr: 0x10000})
	h.send(t, &noc.Message{Type: noc.Data, Src: 5, Dst: 0, Addr: 0x10000, DataBytes: 64})
	if vl, b := h.mgr.VLMessages.Value(), h.mgr.BMessages.Value(); vl != 1 || b != 1 {
		t.Fatalf("%d messages on VL wires and %d on B wires, want 1 and 1", vl, b)
	}
}

func TestManagerConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	baseline, err := mesh.Layout("baseline", 0)
	if err != nil {
		t.Fatal(err)
	}
	net := mesh.New(k, baseline, nil)
	deliver := func(*noc.Message) {}
	// Nil codec.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil codec accepted")
			}
		}()
		New(k, net, nil, nil, deliver)
	}()
	// VL channel too narrow for the codec's compressed size.
	hetCfg, err := mesh.Layout("vlb", 1)
	if err != nil {
		t.Fatal(err)
	}
	hetNet := mesh.New(k, hetCfg, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("narrow VL channel accepted for 2B-LO codec")
			}
		}()
		New(k, hetNet, compress.NewDBRC(4, 2, 16), nil, deliver)
	}()
}
