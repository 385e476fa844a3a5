package coherence

import (
	"math/rand"
	"testing"

	"tilesim/internal/cache"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
)

// newRPSystem builds a test system with Reply Partitioning enabled and a
// transport that delays relaxed full-line replies much more than partial
// replies, mimicking the PW/L wire split.
func newRPSystem(lineDelay sim.Time) *testSystem {
	ts := &testSystem{k: sim.NewKernel(), sent: map[noc.Type]int{}}
	ts.delay = func(m *noc.Message) sim.Time {
		if m.Relaxed {
			return lineDelay
		}
		return 2
	}
	cfg := DefaultConfig()
	cfg.ReplyPartitioning = true
	ts.p = New(ts.k, cfg, func(m noc.Message) {
		m.SizeBytes = m.UncompressedSize()
		ts.sent[m.Type]++
		ts.k.Schedule(ts.delay(&m), func() { ts.p.Deliver(&m) })
	})
	return ts
}

func TestPartialReplyResumesCoreEarly(t *testing.T) {
	ts := newRPSystem(200) // full line crawls
	addr := uint64(0x9_0000)
	var resumedAt, installedAt sim.Time
	done := false
	ts.p.L1(2).Load(addr, func() {
		done = true
		resumedAt = ts.k.Now()
	})
	ts.k.Run(func() bool { return done })
	if !done {
		t.Fatal("load never completed")
	}
	// The line is not yet installed when the core resumes.
	if ts.p.L1(2).Cache().Probe(addr) != nil {
		t.Fatal("line installed before the slow ordinary reply arrived")
	}
	ts.k.Run(nil)
	installedAt = ts.k.Now()
	if line := ts.p.L1(2).Cache().Probe(addr); line == nil || line.State != cache.Exclusive {
		t.Fatalf("line not installed E after drain: %v", ts.p.L1(2).Cache().Probe(addr))
	}
	if installedAt <= resumedAt {
		t.Fatalf("install at %d not after resume at %d", installedAt, resumedAt)
	}
	if ts.sent[noc.PartialReply] != 1 {
		t.Fatalf("partial replies sent: %d", ts.sent[noc.PartialReply])
	}
	ts.drain(t)
	ts.checkInvariants(t, []uint64{addr})
}

func TestOrdinaryReplyOvertakingPartialIsHandled(t *testing.T) {
	// Invert the delays: the full line arrives before the partial.
	ts := &testSystem{k: sim.NewKernel(), sent: map[noc.Type]int{}}
	ts.delay = func(m *noc.Message) sim.Time {
		if m.Type == noc.PartialReply {
			return 300
		}
		return 2
	}
	cfg := DefaultConfig()
	cfg.ReplyPartitioning = true
	ts.p = New(ts.k, cfg, func(m noc.Message) {
		m.SizeBytes = m.UncompressedSize()
		ts.sent[m.Type]++
		ts.k.Schedule(ts.delay(&m), func() { ts.p.Deliver(&m) })
	})
	addr := uint64(0xA_0000)
	done := false
	ts.p.L1(1).Load(addr, func() { done = true })
	ts.k.Run(nil)
	if !done {
		t.Fatal("load never completed")
	}
	// The late partial must be ignored gracefully (entry already freed).
	ts.drain(t)
	ts.checkInvariants(t, []uint64{addr})
}

func TestPartialReplyOnWritesWaitsForAcks(t *testing.T) {
	ts := newRPSystem(150)
	addr := uint64(0xB_0000)
	// Three sharers.
	for _, tile := range []int{0, 1, 2} {
		done := false
		ts.p.L1(tile).Load(addr, func() { done = true })
		ts.k.Run(func() bool { return done })
		ts.k.Run(nil)
	}
	// Tile 5 writes: needs data + 3 invalidation acks.
	done := false
	var resumedAt sim.Time
	ts.p.L1(5).Store(addr, func() {
		done = true
		resumedAt = ts.k.Now()
	})
	ts.k.Run(func() bool { return done })
	if !done {
		t.Fatal("store never completed")
	}
	if ts.sent[noc.InvAck] < 3 {
		t.Fatalf("invacks %d, want >= 3", ts.sent[noc.InvAck])
	}
	_ = resumedAt
	ts.k.Run(nil)
	ts.drain(t)
	ts.checkInvariants(t, []uint64{addr})
	if st := ts.state(5, addr); st != cache.Modified {
		t.Fatalf("writer state %v", st)
	}
}

func TestForwardedOwnersSplitRepliesToo(t *testing.T) {
	ts := newRPSystem(120)
	addr := uint64(0xC_0000)
	run := func(tile int, write bool) {
		done := false
		if write {
			ts.p.L1(tile).Store(addr, func() { done = true })
		} else {
			ts.p.L1(tile).Load(addr, func() { done = true })
		}
		ts.k.Run(func() bool { return done })
		ts.k.Run(nil)
	}
	run(0, true)  // owner M at tile 0
	run(3, false) // FwdGetS: owner must send PR + relaxed line
	if ts.sent[noc.PartialReply] < 2 {
		t.Fatalf("partial replies %d, want >= 2 (home grant + owner forward)", ts.sent[noc.PartialReply])
	}
	ts.drain(t)
	ts.checkInvariants(t, []uint64{addr})
}

// TestReplyPartitioningStress reruns the randomized protocol stress with
// RP enabled and relaxed replies heavily delayed.
func TestReplyPartitioningStress(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		rng := rand.New(rand.NewSource(seed))
		delayRng := rand.New(rand.NewSource(seed * 31))
		ts := &testSystem{k: sim.NewKernel(), sent: map[noc.Type]int{}}
		ts.delay = func(m *noc.Message) sim.Time {
			d := sim.Time(1 + delayRng.Intn(30))
			if m.Relaxed {
				d += 40
			}
			return d
		}
		cfg := DefaultConfig()
		cfg.ReplyPartitioning = true
		ts.p = New(ts.k, cfg, func(m noc.Message) {
			m.SizeBytes = m.UncompressedSize()
			ts.sent[m.Type]++
			ts.k.Schedule(ts.delay(&m), func() { ts.p.Deliver(&m) })
		})
		blocks := make([]uint64, 16)
		for i := range blocks {
			blocks[i] = uint64(0xD_0000 + i*64)
		}
		doneCount := 0
		var launch func(tile, remaining int)
		launch = func(tile, remaining int) {
			if remaining == 0 {
				doneCount++
				return
			}
			addr := blocks[rng.Intn(len(blocks))]
			cont := func() { launch(tile, remaining-1) }
			if rng.Intn(3) == 0 {
				ts.p.L1(tile).Store(addr, cont)
			} else {
				ts.p.L1(tile).Load(addr, cont)
			}
		}
		for tile := 0; tile < 16; tile++ {
			launch(tile, 40)
		}
		ts.k.Run(nil)
		if doneCount != 16 {
			t.Fatalf("seed %d: %d/16 tiles finished", seed, doneCount)
		}
		ts.drain(t)
		ts.checkInvariants(t, blocks)
	}
}
