package mesh

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"tilesim/internal/noc"
	"tilesim/internal/obs"
	"tilesim/internal/sim"
)

// sink installs a discarding handler on every tile.
func sink(n *Network) {
	for i := 0; i < n.Topology().Tiles(); i++ {
		n.SetHandler(i, func(*sim.Kernel, *noc.Message) {})
	}
}

// burst injects a congested mix of messages: many senders share links
// so output-channel queueing is non-zero, sizes span 1..multi flit.
func burst(k *sim.Kernel, n *Network) int {
	count := 0
	for src := 0; src < 16; src++ {
		for _, dst := range []int{(src + 1) % 16, (src + 7) % 16, 15 - src} {
			if dst == src {
				continue
			}
			m := &noc.Message{Type: noc.GetS, Src: src, Dst: dst, SizeBytes: 11}
			if (src+dst)%3 == 0 {
				m = &noc.Message{Type: noc.Data, Src: src, Dst: dst, SizeBytes: 75}
			}
			n.Send(m)
			count++
		}
	}
	return count
}

func TestBreakdownSumsExactly(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, mustLayout("baseline"), nil)
	sink(n)
	sent := burst(k, n)
	k.Run(nil)

	var delivered, totalLat uint64
	for c := noc.Class(0); c < noc.NumClasses; c++ {
		bd := n.breakdown[c]
		delivered += bd.Messages
		totalLat += bd.Total
		if bd.Total != bd.Router+bd.Queue+bd.Wire+bd.Serialize+bd.Retry {
			t.Errorf("class %v: total %d != router %d + queue %d + wire %d + serialize %d",
				c, bd.Total, bd.Router, bd.Queue, bd.Wire, bd.Serialize)
		}
		if bd.Messages > 0 && bd.Router == 0 {
			t.Errorf("class %v: %d messages but zero router cycles", c, bd.Messages)
		}
	}
	if delivered != uint64(sent) {
		t.Fatalf("breakdown counted %d messages, sent %d", delivered, sent)
	}

	// The breakdown totals must agree with the latency means: sum of
	// observed latencies == sum of breakdown totals.
	var meanSum float64
	for c := noc.Class(0); c < noc.NumClasses; c++ {
		meanSum += n.latHist[c].Moments().Sum()
	}
	if uint64(meanSum+0.5) != totalLat {
		t.Fatalf("breakdown total %d cycles, latency-mean sum %v", totalLat, meanSum)
	}

	// The congested burst must exercise the queue component, otherwise
	// this test proves nothing about the residual math.
	var queue uint64
	for c := noc.Class(0); c < noc.NumClasses; c++ {
		queue += n.breakdown[c].Queue
	}
	if queue == 0 {
		t.Fatal("burst produced no queueing; congestion fixture is broken")
	}
}

func TestNetworkTracerEmitsLifecycle(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, mustLayout("baseline"), nil)
	sink(n)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, 1)
	n.SetTracer(tr)
	sent := burst(k, n)
	k.Run(nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	begins, ends, links := 0, 0, 0
	open := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "b" && ev.Pid == obs.PidMessages:
			begins++
			open[ev.ID] = true
		case ev.Ph == "e" && ev.Pid == obs.PidMessages:
			ends++
			if !open[ev.ID] {
				t.Fatalf("end event for unopened span %s", ev.ID)
			}
			// End args carry the per-message breakdown, and it sums to
			// the span length exactly like the aggregate counters.
			sum := ev.Args["router_cycles"].(float64) + ev.Args["queue_cycles"].(float64) +
				ev.Args["wire_cycles"].(float64) + ev.Args["serialize_cycles"].(float64)
			if sum <= 0 {
				t.Fatalf("span %s has empty breakdown args: %v", ev.ID, ev.Args)
			}
		case ev.Ph == "X" && ev.Pid == obs.PidLinks:
			links++
		}
	}
	if begins != sent || ends != sent {
		t.Fatalf("lifecycle spans: %d begins, %d ends, want %d each", begins, ends, sent)
	}
	if links == 0 {
		t.Fatal("no link occupancy events")
	}
}

// TestTracerDoesNotChangeTiming runs the same burst with and without a
// tracer and compares every statistic: observation must be free.
func TestTracerDoesNotChangeTiming(t *testing.T) {
	run := func(trace bool) (Summary, [noc.NumClasses]LatencyBreakdown, sim.Time) {
		k := sim.NewKernel()
		n := New(k, mustLayout("baseline"), nil)
		sink(n)
		if trace {
			n.SetTracer(obs.NewTracer(&bytes.Buffer{}, 2))
		}
		burst(k, n)
		end := k.Run(nil)
		var bds [noc.NumClasses]LatencyBreakdown
		for c := noc.Class(0); c < noc.NumClasses; c++ {
			bds[c] = n.breakdown[c]
		}
		return n.Summary(), bds, end
	}
	sumPlain, bdPlain, endPlain := run(false)
	sumTraced, bdTraced, endTraced := run(true)
	if sumPlain != sumTraced {
		t.Errorf("summaries differ: %+v vs %+v", sumPlain, sumTraced)
	}
	if bdPlain != bdTraced {
		t.Errorf("breakdowns differ: %+v vs %+v", bdPlain, bdTraced)
	}
	if endPlain != endTraced {
		t.Errorf("end cycles differ: %d vs %d", endPlain, endTraced)
	}
}

func TestRegisterMetricsNames(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, mustLayout("baseline"), nil)
	sink(n)
	r := obs.NewRegistry()
	n.RegisterMetrics(r)

	// 4x4 mesh: 48 directed links, baseline has 1 plane -> 48 link
	// flit counters + 48 utilization gauges.
	names := r.Names()
	linkFlits, linkUtil := 0, 0
	for _, name := range names {
		if len(name) > 9 && name[:9] == "net.link." {
			switch name[len(name)-5:] {
			case "flits":
				linkFlits++
			case ".util":
				linkUtil++
			}
		}
	}
	if linkFlits != 48 || linkUtil != 48 {
		t.Fatalf("per-link metrics: %d flits, %d util, want 48 each", linkFlits, linkUtil)
	}

	burst(k, n)
	k.Run(nil)
	snap := r.Snapshot(k.Now())

	// Breakdown counters surfaced through the registry still sum
	// exactly per class.
	for c := noc.Class(0); c < noc.NumClasses; c++ {
		slug := classSlug(c)
		total := get(snap, "net.breakdown."+slug+".total_cycles").Count
		parts := get(snap, "net.breakdown."+slug+".router_cycles").Count +
			get(snap, "net.breakdown."+slug+".queue_cycles").Count +
			get(snap, "net.breakdown."+slug+".wire_cycles").Count +
			get(snap, "net.breakdown."+slug+".serialize_cycles").Count
		if total != parts {
			t.Errorf("registry breakdown %s: total %d != parts %d", slug, total, parts)
		}
	}

	// Utilizations read as gauges, fractions of elapsed time.
	for _, name := range names {
		m := get(snap, name)
		if m.Type == "gauge" && (m.Value < 0 || m.Value > 1) &&
			name != "net.inflight" {
			t.Errorf("gauge %s = %v out of [0,1]", name, m.Value)
		}
	}
}

// get returns the metric named name in s, the zero Metric if s lacks
// it.
func get(s obs.Snapshot, name string) obs.Metric {
	m, _ := s.Get(name)
	return m
}

// TestLinkLabelMatchesSprintf pins the per-link name segment to the
// fmt.Sprintf format it replaced, across the id widths a 1024-tile
// network reaches, so per-link metric and series names stay
// byte-identical.
func TestLinkLabelMatchesSprintf(t *testing.T) {
	for _, from := range []int{0, 7, 9, 10, 99, 100, 1023} {
		for _, to := range []int{0, 1, 10, 999, 1000} {
			for p := Plane(0); p < numPlanes; p++ {
				want := fmt.Sprintf("%02d->%02d.%s", from, to, p)
				if got := string(appendLinkLabel(nil, link{from: from, to: to}, p)); got != want {
					t.Fatalf("link %d->%d plane %v labelled %q, want %q", from, to, p, got, want)
				}
			}
		}
	}
}

// BenchmarkLinkMetrics registers and snapshots the network metrics of
// a 1024-tile torus with VL+B wires, whose per-link family holds 4,096
// links x 2 planes x 2 = 16,384 metrics.
func BenchmarkLinkMetrics(b *testing.B) {
	cfg := mustLayout("vlb")
	cfg.Topo = mustTopology("torus", 32, 32, 1)
	n := New(sim.NewKernel(), cfg, nil)
	b.Run("register", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n.RegisterMetrics(obs.NewRegistry())
		}
	})
	r := obs.NewRegistry()
	n.RegisterMetrics(r)
	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Snapshot(0)
		}
	})
}
