package coherence

import (
	"testing"

	"tilesim/internal/cache"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
)

// slowLines is a loopback delay rule that delays relaxed full-line
// replies much more than everything else, the partial replies included,
// mimicking the PW/L wire split.
func slowLines(lineDelay sim.Time) func(*noc.Message) sim.Time {
	return func(m *noc.Message) sim.Time {
		if m.Relaxed {
			return lineDelay
		}
		return 2
	}
}

func TestPartialReplyResumesCoreEarly(t *testing.T) {
	ts := newTestSystem(t, rig{rp: true, delay: slowLines(200)}) // full line crawls
	addr := uint64(0x9_0000)
	var resumedAt, installedAt sim.Time
	done := false
	ts.p.L1(2).Load(addr, func() {
		done = true
		resumedAt = ts.k.Now()
	})
	ts.runUntil(func() bool { return done })
	if !done {
		t.Fatal("load never completed")
	}
	// The line is not yet installed when the core resumes.
	if ts.p.L1(2).cache.Probe(addr) != nil {
		t.Fatal("line installed before the slow ordinary reply arrived")
	}
	ts.runUntil(nil)
	installedAt = ts.k.Now()
	if line := ts.p.L1(2).cache.Probe(addr); line == nil || line.State() != cache.Exclusive {
		t.Fatalf("line not installed E after drain: %v", ts.p.L1(2).cache.Probe(addr))
	}
	if installedAt <= resumedAt {
		t.Fatalf("install at %d not after resume at %d", installedAt, resumedAt)
	}
	if ts.sent[noc.PartialReply] != 1 {
		t.Fatalf("partial replies sent: %d", ts.sent[noc.PartialReply])
	}
	ts.drain()
}

func TestOrdinaryReplyOvertakingPartialIsHandled(t *testing.T) {
	// Invert the delays: the full line arrives before the partial.
	ts := newTestSystem(t, rig{rp: true, delay: func(m *noc.Message) sim.Time {
		if m.Type == noc.PartialReply {
			return 300
		}
		return 2
	}})
	addr := uint64(0xA_0000)
	done := false
	ts.p.L1(1).Load(addr, func() { done = true })
	ts.runUntil(nil)
	if !done {
		t.Fatal("load never completed")
	}
	// The late partial must be ignored gracefully (entry already freed).
	ts.drain()
}

// TestPartialReplyOnWritesWaitsForAcks has a store invalidate three
// sharers whose acks travel 40 cycles, long after the partial reply:
// the core must resume on the partial and the last ack, before the full
// line installs.
func TestPartialReplyOnWritesWaitsForAcks(t *testing.T) {
	const ackDelay = 40
	ts := newTestSystem(t, rig{rp: true, delay: func(m *noc.Message) sim.Time {
		if m.Type == noc.InvAck {
			return ackDelay
		}
		return slowLines(150)(m)
	}})
	addr := uint64(0xB_0000)
	for _, tile := range []int{0, 1, 2} {
		ts.run(tile, addr, false)
	}
	var lastAck, resumedAt sim.Time
	ts.onSend = func(m *noc.Message) bool {
		if m.Type == noc.InvAck && m.Dst == 5 {
			lastAck = ts.k.Now() + ackDelay
		}
		return false
	}
	done := false
	ts.p.L1(5).Store(addr, func() { done, resumedAt = true, ts.k.Now() })
	ts.runUntil(func() bool { return done })
	if ts.sent[noc.InvAck] != 3 || resumedAt < lastAck || ts.state(5, addr) != cache.Invalid {
		t.Fatalf("%d acks, the last in at %d, the core resumed at %d with the line in %v; want 3, and the resume on the last ack before the line installs",
			ts.sent[noc.InvAck], lastAck, resumedAt, ts.state(5, addr))
	}
	ts.drain()
	if st := ts.state(5, addr); st != cache.Modified {
		t.Fatalf("writer state %v", st)
	}
}

func TestForwardedOwnersSplitRepliesToo(t *testing.T) {
	ts := newTestSystem(t, rig{rp: true, delay: slowLines(120)})
	addr := uint64(0xC_0000)
	ts.run(0, addr, true)  // owner M at tile 0
	ts.run(3, addr, false) // FwdGetS: owner must send PR + relaxed line
	if ts.sent[noc.PartialReply] < 2 {
		t.Fatalf("partial replies %d, want >= 2 (home grant + owner forward)", ts.sent[noc.PartialReply])
	}
	ts.drain()
}
