package compress

import (
	"math/rand"
	"reflect"
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

// TestDBRCReceiverStorageFollowsInstalls drives seeded traffic through
// DBRCs of 16, 64 and 1024 cores and checks, every 500 calls, that the
// codec keeps exactly one register file per (dst, src, stream) that
// has received an install, with room for at most twice as many (or for
// its initial allotment): receiver storage follows the pairs that
// talk, not the chip's cores² receivers. Half the endpoints come from
// a small hot set, so compressed decodes read files across every
// resize.
func TestDBRCReceiverStorageFollowsInstalls(t *testing.T) {
	const calls = 40_000
	for _, cores := range []int{16, 64, 1024} {
		d := NewDBRC(4, 2, cores)
		rng := rand.New(rand.NewSource(int64(cores)))
		hot := []int{0, 1, cores / 2, cores - 1}
		pick := func() int {
			if rng.Intn(2) == 0 {
				return hot[rng.Intn(len(hot))]
			}
			return rng.Intn(cores)
		}
		installed := make(map[int]bool)
		hits := 0
		for i := 1; i <= calls; i++ {
			src, dst := pick(), pick()
			stream := Stream(rng.Intn(NumStreams))
			addr := uint64(rng.Intn(4))<<16 | uint64(rng.Intn(256))
			e := d.Encode(src, dst, stream, addr)
			if got := d.Decode(src, dst, stream, e); got != addr {
				t.Fatalf("cores=%d call %d: %d->%d %v sent %#x, decoded %#x", cores, i, src, dst, stream, addr, got)
			}
			if e.Compressed {
				hits++
			} else {
				installed[(dst*cores+src)*NumStreams+int(stream)] = true
			}
			if i%500 != 0 {
				continue
			}
			k := len(installed)
			if d.recv.n != k {
				t.Fatalf("cores=%d after %d calls: %d register files for %d installed receivers", cores, i, d.recv.n, k)
			}
			if room := len(d.regs) / d.entries; room > max(2*k, initialPairs) || room != d.recv.room() {
				t.Fatalf("cores=%d after %d calls: room for %d files in %d table slots, for %d installed receivers",
					cores, i, room, len(d.recv.slots), k)
			}
		}
		if hits == 0 {
			t.Errorf("cores=%d: no call compressed; no decode read a register file", cores)
		}
		t.Logf("cores=%d: %d register files of %d receivers, %d of %d calls compressed",
			cores, d.recv.n, cores*cores*NumStreams, hits, calls)
	}
}

// TestDBRCStorageHoldsNoPointers walks the DBRC's fields: its sender
// and receiver storage are slices of pointer-free elements and nothing
// else in it holds a pointer, so the GC never scans its arrays however
// many pairs talk.
func TestDBRCStorageHoldsNoPointers(t *testing.T) {
	checkStorageHoldsNoPointers(t, "DBRC", reflect.TypeOf(DBRC{}))
}

// checkStorageHoldsNoPointers fails t unless every field of the struct
// type typ, named name, is a pointer-free value, a slice of them, or a
// struct (such as a pairTable) whose own fields are.
func checkStorageHoldsNoPointers(t *testing.T, name string, typ reflect.Type) {
	t.Helper()
	for i := range typ.NumField() {
		f := typ.Field(i)
		ft := f.Type
		switch ft.Kind() {
		case reflect.Struct:
			checkStorageHoldsNoPointers(t, name+"."+f.Name, ft)
			continue
		case reflect.Slice:
			ft = ft.Elem()
		}
		if holdsPointers(ft) {
			t.Errorf("%s.%s (%v) holds pointers", name, f.Name, f.Type)
		}
	}
}

// holdsPointers reports whether a value of type t holds a pointer the
// garbage collector must scan.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && holdsPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
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

// TestSpecValidateBounds pins the parameter ranges Spec.Validate
// accepts, and that Build and CompressedPayloadBytes refuse a spec it
// rejects instead of reaching a constructor's panic.
func TestSpecValidateBounds(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Kind: "none"}, true},
		{Spec{Kind: "dbrc", Entries: 1, LowOrderBytes: 1}, true},
		{Spec{Kind: "dbrc", Entries: 256, LowOrderBytes: 2}, true},
		{Spec{Kind: "dbrc", Entries: 0, LowOrderBytes: 2}, false},
		{Spec{Kind: "dbrc", Entries: 257, LowOrderBytes: 2}, false},
		{Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 0}, false},
		{Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 3}, false},
		{Spec{Kind: "stride", LowOrderBytes: 1}, true},
		{Spec{Kind: "stride", LowOrderBytes: 3}, false},
		{Spec{Kind: "perfect", LowOrderBytes: 2}, true},
		{Spec{Kind: "perfect", LowOrderBytes: -1}, false},
		{Spec{Kind: "bogus"}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		_, buildErr := c.spec.Build(testCores)
		_, payloadErr := c.spec.CompressedPayloadBytes()
		if (err == nil) != c.ok || (buildErr == nil) != c.ok || (payloadErr == nil) != c.ok {
			t.Errorf("%+v: Validate %v, Build %v, CompressedPayloadBytes %v; want ok=%v",
				c.spec, err, buildErr, payloadErr, c.ok)
		}
	}
}
