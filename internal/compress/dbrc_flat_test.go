package compress

import (
	"math/rand"
	"testing"
)

// refDBRC is the per-receiver DBRC the flat layout replaced: one struct
// per (core, stream) sender and per (dst, src, stream) receiver, each
// with its own slices. It is kept as the differential oracle. Receivers
// are built on first use, so the oracle stays small at 1024 cores.
type refDBRC struct {
	entries, loBytes, cores int

	senders   []refSender
	receivers map[int]*refReceiver // (dst*cores + src)*NumStreams + stream
}

type refSender struct {
	entries []dbrcEntry
	clock   uint64
}

type refReceiver struct {
	bases []uint64
	valid []bool
}

func newRefDBRC(entries, loBytes, cores int) *refDBRC {
	d := &refDBRC{entries: entries, loBytes: loBytes, cores: cores,
		senders:   make([]refSender, cores*NumStreams),
		receivers: map[int]*refReceiver{}}
	for i := range d.senders {
		d.senders[i].entries = make([]dbrcEntry, entries)
	}
	return d
}

func (d *refDBRC) receiver(src, dst int, stream Stream) *refReceiver {
	k := (dst*d.cores+src)*NumStreams + int(stream)
	r := d.receivers[k]
	if r == nil {
		r = &refReceiver{bases: make([]uint64, d.entries), valid: make([]bool, d.entries)}
		d.receivers[k] = r
	}
	return r
}

func (d *refDBRC) loMask() uint64 { return uint64(1)<<(8*d.loBytes) - 1 }

func (d *refDBRC) Encode(src, dst int, stream Stream, addr uint64) Encoded {
	s := &d.senders[src*NumStreams+int(stream)]
	s.clock++
	base := addr >> (8 * d.loBytes)
	dstBit := uint32(1) << uint(dst)
	hit := -1
	for i := range s.entries {
		e := &s.entries[i]
		if e.valid && e.base == base {
			hit = i
			break
		}
	}
	if hit >= 0 {
		e := &s.entries[hit]
		e.lastUse = s.clock
		if e.dstMask&dstBit != 0 {
			return Encoded{Compressed: true, PayloadBytes: d.loBytes, Payload: addr & d.loMask(), InstallIndex: hit}
		}
		e.dstMask |= dstBit
		return Encoded{Compressed: false, PayloadBytes: 8, Payload: addr, InstallIndex: hit}
	}
	victim := 0
	for i := range s.entries {
		if !s.entries[i].valid {
			victim = i
			break
		}
		if s.entries[i].lastUse < s.entries[victim].lastUse {
			victim = i
		}
	}
	s.entries[victim] = dbrcEntry{base: base, valid: true, dstMask: dstBit, lastUse: s.clock}
	return Encoded{Compressed: false, PayloadBytes: 8, Payload: addr, InstallIndex: victim}
}

func (d *refDBRC) Decode(src, dst int, stream Stream, e Encoded) uint64 {
	r := d.receiver(src, dst, stream)
	if !e.Compressed {
		r.bases[e.InstallIndex] = e.Payload >> (8 * d.loBytes)
		r.valid[e.InstallIndex] = true
		return e.Payload
	}
	if !r.valid[e.InstallIndex] {
		panic("refDBRC: entry used before install")
	}
	return r.bases[e.InstallIndex]<<(8*d.loBytes) | (e.Payload & d.loMask())
}

// TestFlatDBRCMatchesPerReceiverOracle drives seeded random traffic
// through the flat DBRC and the per-receiver oracle side by side and
// requires identical encodings and decoded addresses on every call,
// destinations at and above 32 included. Sources and destinations are
// drawn half from a small hot set (so pairs repeat and hit) and half
// uniformly; addresses mix a few compact regions with scattered ones.
func TestFlatDBRCMatchesPerReceiverOracle(t *testing.T) {
	const calls = 100_000
	for _, cores := range []int{16, 64, 1024} {
		for _, cfg := range []struct{ entries, lo int }{{4, 2}, {2, 1}} {
			flat := NewDBRC(cfg.entries, cfg.lo, cores)
			ref := newRefDBRC(cfg.entries, cfg.lo, cores)
			rng := rand.New(rand.NewSource(int64(cores*10 + cfg.entries)))
			hot := []int{0, 1, cores / 2, cores - 1}
			pick := func() int {
				if rng.Intn(2) == 0 {
					return hot[rng.Intn(len(hot))]
				}
				return rng.Intn(cores)
			}
			var hits, highDst, highHits int
			for i := 0; i < calls; i++ {
				src, dst := pick(), pick()
				stream := Stream(rng.Intn(NumStreams))
				// Four 256 B regions (one base each at 1 B and 2 B LO), or
				// anywhere.
				addr := uint64(rng.Intn(4))<<16 | uint64(rng.Intn(256))
				if rng.Intn(4) == 0 {
					addr = rng.Uint64()
				}
				got, want := flat.Encode(src, dst, stream, addr), ref.Encode(src, dst, stream, addr)
				if got != want {
					t.Fatalf("cores=%d %d-entry call %d: Encode(%d->%d %v %#x) = %+v, oracle %+v",
						cores, cfg.entries, i, src, dst, stream, addr, got, want)
				}
				gotAddr, wantAddr := flat.Decode(src, dst, stream, got), ref.Decode(src, dst, stream, want)
				if gotAddr != wantAddr || gotAddr != addr {
					t.Fatalf("cores=%d %d-entry call %d: Decode = %#x, oracle %#x, sent %#x",
						cores, cfg.entries, i, gotAddr, wantAddr, addr)
				}
				if got.Compressed {
					hits++
				}
				if dst >= 32 {
					highDst++
					if got.Compressed {
						highHits++
					}
				}
			}
			if hits == 0 {
				t.Errorf("cores=%d %d-entry: no call compressed; the comparison never reached the hit path", cores, cfg.entries)
			}
			if cores > 32 && highDst == 0 {
				t.Errorf("cores=%d: no destination >= 32 exercised", cores)
			}
			t.Logf("cores=%d %d-entry/%dB: %d of %d compressed; %d to dst>=32, %d of them compressed",
				cores, cfg.entries, cfg.lo, hits, calls, highDst, highHits)
		}
	}
}

// TestNewDBRCAllocations pins the flat layout: a 1024-core DBRC is a
// handful of arrays, not millions of per-receiver objects.
func TestNewDBRCAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(1, func() { NewDBRC(4, 2, 1024) }); n > 8 {
		t.Fatalf("NewDBRC(4, 2, 1024) made %.0f allocations, want <= 8", n)
	}
}

// TestSpecPayloadMatchesBuiltCodec keeps Spec.CompressedPayloadBytes,
// which sizes the VL channel without building a codec, in step with the
// codecs Build returns.
func TestSpecPayloadMatchesBuiltCodec(t *testing.T) {
	specs := append([]Spec{{Kind: "none"}}, Figure2Specs()...)
	specs = append(specs, PerfectSpecs()...)
	for _, s := range specs {
		got, err := s.CompressedPayloadBytes()
		if err != nil {
			t.Fatalf("%s: %v", s.Label(), err)
		}
		c, err := s.Build(testCores)
		if err != nil {
			t.Fatalf("%s: %v", s.Label(), err)
		}
		if want := c.CompressedPayloadBytes(); got != want {
			t.Errorf("%s: Spec payload %d, codec payload %d", s.Label(), got, want)
		}
	}
	if _, err := (Spec{Kind: "bogus"}).CompressedPayloadBytes(); err == nil {
		t.Error("bogus spec has a payload size")
	}
}
