package compress

import "fmt"

// Stride implements the base-register scheme of paper Figure 1 (right):
// a single base register per (source, destination, stream) pair at both
// ends, holding the last address sent on that pair. When the difference
// between the new address and the base fits in deltaBytes signed bytes,
// only the difference travels; either way both ends update their base to
// the new address. No adder-free index lookup is needed, which is the
// scheme's hardware appeal; its weakness (shown in Figure 2) is that
// home-interleaved coherence traffic rarely exhibits small strides.
//
// The registers live in a flat, pointer-free array with one record per
// pair that has sent (DESIGN.md §16.5): a 1024-tile CMP has two million
// pairs, and the ones that never talk keep nothing.
type Stride struct {
	deltaBytes int
	cores      int

	// pairs numbers a pair's index, (src*cores+dst)*NumStreams + stream,
	// on its first message, and regs[p] holds pair p's registers; regs
	// has room for pairs.room() records.
	pairs pairTable
	regs  []strideRegs
}

// strideRegs is one pair's base registers. A real implementation has one
// register at each end updated in lockstep by construction (every
// message updates both); the codec keeps sender and receiver copies
// separately so tests can prove they never diverge.
type strideRegs struct {
	sender, recv         uint64
	senderSeen, recvSeen bool
}

// NewStride builds a stride codec sending deltaBytes (1 or 2) deltas for
// a CMP with cores tiles.
func NewStride(deltaBytes, cores int) *Stride {
	if deltaBytes < 1 || deltaBytes > 2 {
		panic(fmt.Sprintf("compress: stride delta must be 1 or 2 bytes, got %d", deltaBytes))
	}
	if cores < 2 || cores > 1024 {
		panic(fmt.Sprintf("compress: stride cores must be 2..1024, got %d", cores))
	}
	s := &Stride{deltaBytes: deltaBytes, cores: cores}
	s.Reset()
	return s
}

// Name implements Codec, matching the paper's figure labels.
func (s *Stride) Name() string { return fmt.Sprintf("%d-byte Stride", s.deltaBytes) }

// CompressedPayloadBytes implements Codec.
func (s *Stride) CompressedPayloadBytes() int { return s.deltaBytes }

// Reset implements Codec.
func (s *Stride) Reset() {
	s.pairs.reset(s.cores * s.cores * NumStreams)
	s.regs = make([]strideRegs, s.pairs.room())
}

// regsOf returns the registers of the pair from src to dst on stream,
// numbering the pair if it has not talked before.
func (s *Stride) regsOf(src, dst int, stream Stream) *strideRegs {
	if src < 0 || src >= s.cores || dst < 0 || dst >= s.cores {
		panic(fmt.Sprintf("compress: stride endpoint out of range src=%d dst=%d cores=%d", src, dst, s.cores))
	}
	p, fresh := s.pairs.open((src*s.cores+dst)*NumStreams + int(stream))
	if n := s.pairs.room(); fresh && len(s.regs) < n {
		regs := make([]strideRegs, n)
		copy(regs, s.regs)
		s.regs = regs
	}
	return &s.regs[p]
}

// Encode implements Codec.
func (s *Stride) Encode(src, dst int, stream Stream, addr uint64) Encoded {
	r := s.regsOf(src, dst, stream)
	seen, delta := r.senderSeen, int64(addr-r.sender)
	r.sender, r.senderSeen = addr, true
	limit := int64(1) << (8*s.deltaBytes - 1)
	if seen && delta >= -limit && delta < limit {
		mask := uint64(1)<<(8*s.deltaBytes) - 1
		return Encoded{
			Compressed:   true,
			PayloadBytes: s.deltaBytes,
			Payload:      uint64(delta) & mask,
			InstallIndex: -1,
		}
	}
	return Encoded{Compressed: false, PayloadBytes: 8, Payload: addr, InstallIndex: -1}
}

// Decode implements Codec.
func (s *Stride) Decode(src, dst int, stream Stream, e Encoded) uint64 {
	r := s.regsOf(src, dst, stream)
	addr := e.Payload
	if e.Compressed {
		if !r.recvSeen {
			panic(fmt.Sprintf("compress: stride receiver %d<-%d %v got delta before any base", dst, src, stream))
		}
		// Sign-extend the delta.
		shift := 64 - 8*s.deltaBytes
		delta := int64(e.Payload<<shift) >> shift
		addr = r.recv + uint64(delta)
	}
	r.recv, r.recvSeen = addr, true
	return addr
}
