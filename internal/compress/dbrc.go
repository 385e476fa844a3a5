package compress

import "fmt"

// DBRC implements dynamic base register caching (Farrens & Park [8]),
// adapted to a tiled CMP per paper Figure 1 (left):
//
//   - At each sending core, per stream, a small fully-associative
//     compression cache of address bases (the address with its low-order
//     bytes stripped), LRU-replaced.
//   - At each receiving core, per (source, stream), a register file
//     mirroring the sender's cache contents for the pairs that have
//     communicated.
//
// In the original bus-based DBRC there is a single receiver, so sender
// and receiver stay trivially coherent. With 16 possible receivers, a
// base cached at the sender may not yet be known to a given receiver:
// each sender entry therefore carries a per-destination valid mask, and
// a hit requires both the base match and the destination bit. Misses
// travel uncompressed together with the entry index the receiver must
// install the base into (the index rides in spare header bits).
//
// On a hit the wire carries only the low-order bytes (plus the entry
// index in spare header bits), so the compressed payload is loBytes and
// the whole message fits the 3+loBytes+1 = 4- or 5-byte VL channel.
//
// Both ends live in flat, pointer-free arrays (DESIGN.md §16.5). A
// 1024-tile CMP has two million (destination, source, stream)
// receivers, but only the ones that have received an install keep a
// register file, so memory follows the pairs that actually talk.
type DBRC struct {
	entries int
	loBytes int
	cores   int

	// Sender side, one set of entries ways per (core, stream):
	// cache[(core*NumStreams+stream)*entries+i], clock[core*NumStreams+stream].
	cache []dbrcEntry
	clock []uint64
	// Receiver side, one register file of entries registers per
	// (dst, src, stream) that has received an install: recv numbers the
	// receiver's index, (dst*cores+src)*NumStreams + stream, on its
	// first install, and regs[f*entries+i] is register i of file f, the
	// installed base plus one, 0 until the first install into it. A
	// base has at least one low-order byte stripped, so the sum never
	// wraps. regs has room for recv.room() files.
	recv pairTable
	regs []uint64
}

type dbrcEntry struct {
	base    uint64
	valid   bool
	dstMask uint32
	lastUse uint64
}

// NewDBRC builds an entries-way DBRC codec with loBytes (1 or 2)
// uncompressed low-order bytes, for a CMP with cores tiles.
func NewDBRC(entries, loBytes, cores int) *DBRC {
	if entries < 1 || entries > 256 {
		panic(fmt.Sprintf("compress: DBRC entries must be 1..256, got %d", entries))
	}
	if loBytes < 1 || loBytes > 2 {
		panic(fmt.Sprintf("compress: DBRC low-order bytes must be 1 or 2, got %d", loBytes))
	}
	if cores < 2 || cores > 1024 {
		panic(fmt.Sprintf("compress: DBRC cores must be 2..1024, got %d", cores))
	}
	d := &DBRC{entries: entries, loBytes: loBytes, cores: cores}
	d.Reset()
	return d
}

// Name implements Codec, matching the paper's figure labels.
func (d *DBRC) Name() string {
	return fmt.Sprintf("%d-entry DBRC (%dB LO)", d.entries, d.loBytes)
}

// CompressedPayloadBytes implements Codec.
func (d *DBRC) CompressedPayloadBytes() int { return d.loBytes }

// Reset implements Codec.
func (d *DBRC) Reset() {
	senders := d.cores * NumStreams
	d.cache = make([]dbrcEntry, senders*d.entries)
	d.clock = make([]uint64, senders)
	d.recv.reset(d.cores * senders)
	d.regs = make([]uint64, d.recv.room()*d.entries)
}

func (d *DBRC) loMask() uint64 { return uint64(1)<<(8*d.loBytes) - 1 }

// Encode implements Codec.
func (d *DBRC) Encode(src, dst int, stream Stream, addr uint64) Encoded {
	d.checkPair(src, dst)
	set := src*NumStreams + int(stream)
	d.clock[set]++
	clock := d.clock[set]
	ways := d.cache[set*d.entries : (set+1)*d.entries]
	base := addr >> (8 * d.loBytes)
	// Zero for dst >= 32, so those destinations never compress: a known
	// model limitation (ROADMAP), kept because fixing it changes every
	// result above 32 tiles.
	dstBit := uint32(1) << uint(dst)

	// Fully-associative lookup.
	hit := -1
	for i := range ways {
		e := &ways[i]
		if e.valid && e.base == base {
			hit = i
			break
		}
	}
	if hit >= 0 {
		e := &ways[hit]
		e.lastUse = clock
		if e.dstMask&dstBit != 0 {
			// Compressed: low-order bytes on the wire, index in header.
			return Encoded{
				Compressed:   true,
				PayloadBytes: d.loBytes,
				Payload:      addr & d.loMask(),
				InstallIndex: hit,
			}
		}
		// The base is cached here but this receiver has never seen it:
		// send in full and tell the receiver where to install it.
		e.dstMask |= dstBit
		return Encoded{Compressed: false, PayloadBytes: 8, Payload: addr, InstallIndex: hit}
	}

	// Miss: evict the LRU entry (or fill an invalid one).
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	ways[victim] = dbrcEntry{base: base, valid: true, dstMask: dstBit, lastUse: clock}
	return Encoded{Compressed: false, PayloadBytes: 8, Payload: addr, InstallIndex: victim}
}

// Decode implements Codec.
func (d *DBRC) Decode(src, dst int, stream Stream, e Encoded) uint64 {
	d.checkPair(src, dst)
	if e.InstallIndex < 0 || e.InstallIndex >= d.entries {
		panic(fmt.Sprintf("compress: DBRC decode with bad index %d", e.InstallIndex))
	}
	i := (dst*d.cores+src)*NumStreams + int(stream)
	if !e.Compressed {
		// An install: the receiver's first opens its file.
		f, fresh := d.recv.open(i)
		if n := d.recv.room() * d.entries; fresh && len(d.regs) < n {
			regs := make([]uint64, n)
			copy(regs, d.regs)
			d.regs = regs
		}
		addr := e.Payload
		d.regs[f*d.entries+e.InstallIndex] = addr>>(8*d.loBytes) + 1
		return addr
	}
	var base uint64
	if f := d.recv.find(i); f >= 0 {
		base = d.regs[f*d.entries+e.InstallIndex]
	}
	if base == 0 {
		panic(fmt.Sprintf("compress: DBRC receiver %d<-%d %v entry %d used before install",
			dst, src, stream, e.InstallIndex))
	}
	return (base-1)<<(8*d.loBytes) | (e.Payload & d.loMask())
}

func (d *DBRC) checkPair(src, dst int) {
	if src < 0 || src >= d.cores || dst < 0 || dst >= d.cores {
		panic(fmt.Sprintf("compress: DBRC endpoint out of range src=%d dst=%d cores=%d", src, dst, d.cores))
	}
}
