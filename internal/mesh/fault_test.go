package mesh

import (
	"reflect"
	"strings"
	"testing"

	"tilesim/internal/fault"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
)

// TestScaledCycles pins the fuzz-tolerant ceiling over exact and
// near-exact scale factors. The old ad-hoc `+ 0.999999` ceiling
// over-rounded exact products whose float64 form lands an ulp above the
// integer: 5 cycles at scale 0.2 computes 1.0000000000000002 and must
// still mean 1 cycle.
func TestScaledCycles(t *testing.T) {
	cases := []struct {
		cycles int
		scale  float64
		want   int
	}{
		{5, 0.2, 1}, // 1.0000000000000002: the over-rounding bug case
		{3, 1.0 / 3.0, 1},
		{7, 1.0 / 7.0, 1},
		{8, 0.125, 1}, // exact in float64
		{8, 0.25, 2},
		{8, 0.5, 4},
		{8, 1.0, 8},
		{8, 2.0, 16},
		{26, 0.5, 13},
		{5, 0.21, 2}, // 1.05: genuine fraction still rounds up
		{8, 0.2, 2},  // 1.6
		{3, 0.4, 2},  // 1.2000000000000002
		{6, 0.5, 3},
		{1, 0.1, 1}, // minimum clamp
		{10, 0.09, 1},
	}
	for _, c := range cases {
		if got := scaledCycles(c.cycles, c.scale); got != c.want {
			t.Errorf("scaledCycles(%d, %v) = %d, want %d", c.cycles, c.scale, got, c.want)
		}
	}
}

// faultNet builds a heterogeneous network with an attached injector and
// sink handlers that record delivery cycles per message pointer order.
func faultNet(t *testing.T, cfg fault.Config, seed int64) (*sim.Kernel, *Network, *[]sim.Time) {
	t.Helper()
	k := sim.NewKernel()
	mcfg := mustLayout("vlb")
	n := New(k, mcfg, nil)
	in, err := fault.NewInjector(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	n.SetInjector(in)
	times := &[]sim.Time{}
	for i := 0; i < n.Topology().Tiles(); i++ {
		n.SetHandler(i, func(k *sim.Kernel, _ *noc.Message) {
			*times = append(*times, k.Now())
		})
	}
	return k, n, times
}

func TestFaultRetryCorrectsEveryErrorAndStaysExact(t *testing.T) {
	// A BER high enough that most traversals fail (~73% for 67 bytes)
	// with a deep retry budget: every injected error must be corrected
	// by retransmission, and the latency decomposition must stay an
	// exact per-class identity with the new Retry component.
	cfg := fault.Config{BER: 2.45e-3, RetryLimit: 64}
	k, n, times := faultNet(t, cfg, 7)
	const msgs = 40
	for i := 0; i < msgs; i++ {
		n.Send(&noc.Message{Type: noc.Data, Src: i % 16, Dst: (i + 5) % 16, DataBytes: 64, SizeBytes: 67})
	}
	k.Run(nil)
	if len(*times) != msgs {
		t.Fatalf("delivered %d of %d messages", len(*times), msgs)
	}
	if n.InFlight() != 0 {
		t.Fatalf("in-flight %d after drain", n.InFlight())
	}
	if err := n.FaultError(); err != nil {
		t.Fatalf("unexpected fault error: %v", err)
	}
	s := n.Summary()
	if s.CRCErrors == 0 {
		t.Fatal("no CRC errors injected at BER 2.45e-3; fault path untested")
	}
	if s.Dropped != 0 {
		t.Fatalf("%d drops with a 64-retry budget", s.Dropped)
	}
	// Every detected error was retransmitted: corrected exactly.
	if s.Retries != s.CRCErrors {
		t.Fatalf("retries %d != crc errors %d with zero drops", s.Retries, s.CRCErrors)
	}
	for c := noc.Class(0); c < noc.NumClasses; c++ {
		bd := n.breakdown[c]
		if sum := bd.Router + bd.Queue + bd.Wire + bd.Serialize + bd.Retry; sum != bd.Total {
			t.Errorf("class %v: components %d != total %d under retransmission",
				c, sum, bd.Total)
		}
	}
	if bd := n.breakdown[noc.ClassResponse]; bd.Retry == 0 {
		t.Error("no retry cycles charged despite CRC errors")
	}
}

func TestFaultSameSeedByteIdentical(t *testing.T) {
	cfg := fault.Config{BER: 1e-3, StallProb: 0.05, StallCycles: 4, RetryLimit: 64}
	run := func(seed int64) (Summary, []sim.Time) {
		k, n, times := faultNet(t, cfg, seed)
		for i := 0; i < 30; i++ {
			n.Send(&noc.Message{Type: noc.Data, Src: i % 16, Dst: (i + 7) % 16, DataBytes: 64, SizeBytes: 67})
			n.Send(&noc.Message{Type: noc.GetS, Src: (i + 3) % 16, Dst: i % 16, SizeBytes: 5, Compressed: true, VL: true})
		}
		k.Run(nil)
		return n.Summary(), *times
	}
	s1, t1 := run(11)
	s2, t2 := run(11)
	s3, t3 := run(12)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(t1, t2) {
		t.Fatal("same-seed fault runs diverge")
	}
	if s1.CRCErrors == 0 {
		t.Fatal("no faults fired; determinism check is vacuous")
	}
	if reflect.DeepEqual(s1, s3) && reflect.DeepEqual(t1, t3) {
		t.Fatal("different seeds produced identical fault behavior")
	}
}

func TestRetryBudgetExhaustionDropsAndSurfacesError(t *testing.T) {
	// BER 0.5 over 536 bits corrupts essentially every traversal; with a
	// 2-retry budget the message must be dropped after 3 attempts and
	// the run must fail loudly instead of livelocking.
	cfg := fault.Config{BER: 0.5, RetryLimit: 2}
	k, n, times := faultNet(t, cfg, 3)
	n.Send(&noc.Message{Type: noc.Data, Src: 0, Dst: 1, DataBytes: 64, SizeBytes: 67})
	k.Run(nil) // must terminate: the drop ends the event cascade
	if len(*times) != 0 {
		t.Fatalf("corrupted message delivered %d times", len(*times))
	}
	if n.InFlight() != 0 {
		t.Fatalf("in-flight %d after drop", n.InFlight())
	}
	s := n.Summary()
	if s.Dropped != 1 {
		t.Fatalf("dropped %d, want 1", s.Dropped)
	}
	if s.CRCErrors != 3 || s.Retries != 2 {
		t.Fatalf("crc errors %d, retries %d; want 3 attempts, 2 retries", s.CRCErrors, s.Retries)
	}
	err := n.FaultError()
	if err == nil {
		t.Fatal("no fault error after retry-budget exhaustion")
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("fault error %q does not name the retry budget", err)
	}
}

func TestPlaneOutageBlocksTransmissionUntilWindowEnds(t *testing.T) {
	cfg := fault.Config{OutagePlane: "VL", OutageStart: 0, OutageCycles: 100}
	k, n, times := faultNet(t, cfg, 1)
	if n.PlaneUp(PlaneVL) {
		t.Fatal("PlaneUp(VL) true inside the outage window")
	}
	if !n.PlaneUp(PlaneB) {
		t.Fatal("PlaneUp(B) false during a VL-only outage")
	}
	// An in-flight VL message holds at the router until the window ends:
	// head would start at cycle 2, is pushed to 100, arrives 103, final
	// router 2 -> delivered 105 (vs. 7 fault-free).
	n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 5, Compressed: true, VL: true})
	k.Run(nil)
	if len(*times) != 1 || (*times)[0] != 105 {
		t.Fatalf("VL delivery under outage %v, want [105]", *times)
	}
	if !n.PlaneUp(PlaneVL) {
		t.Fatal("PlaneUp(VL) still false after the outage window")
	}
}

func TestRouterStallInjectionDelaysHops(t *testing.T) {
	cfg := fault.Config{StallProb: 1, StallCycles: 5}
	k, n, times := faultNet(t, cfg, 1)
	// 1 hop on B: router 2 + stall 5 + wire 8 + router 2 = 17 (vs. 12).
	n.Send(&noc.Message{Type: noc.GetS, Src: 0, Dst: 1, SizeBytes: 11})
	k.Run(nil)
	if len(*times) != 1 || (*times)[0] != 17 {
		t.Fatalf("stalled delivery %v, want [17]", *times)
	}
	// The stall counts as queueing, keeping the decomposition exact.
	bd := n.breakdown[noc.ClassRequest]
	if bd.Queue != 5 || bd.Router+bd.Queue+bd.Wire+bd.Serialize+bd.Retry != bd.Total {
		t.Fatalf("breakdown %+v: want Queue=5 and exact sum", bd)
	}
}

func TestSummarySubDifferencesFaultCounters(t *testing.T) {
	a := Summary{CRCErrors: 10, Retries: 9, RetryFlits: 20, Dropped: 1}
	b := Summary{CRCErrors: 4, Retries: 4, RetryFlits: 8}
	d := a.Sub(b)
	if d.CRCErrors != 6 || d.Retries != 5 || d.RetryFlits != 12 || d.Dropped != 1 {
		t.Fatalf("windowed fault counters %+v", d)
	}
}
