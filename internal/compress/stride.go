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
type Stride struct {
	deltaBytes int
	cores      int

	// Indexed by (src*cores+dst)*NumStreams + stream. A real
	// implementation has one register at each end updated in lockstep by
	// construction (every message updates both); the codec keeps sender
	// and receiver copies separately so tests can prove they never
	// diverge.
	senderBase []uint64
	recvBase   []uint64
	senderSeen []bool
	recvSeen   []bool
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
	n := s.cores * s.cores * NumStreams
	s.senderBase = make([]uint64, n)
	s.recvBase = make([]uint64, n)
	s.senderSeen = make([]bool, n)
	s.recvSeen = make([]bool, n)
}

func (s *Stride) pair(src, dst int, stream Stream) int {
	if src < 0 || src >= s.cores || dst < 0 || dst >= s.cores {
		panic(fmt.Sprintf("compress: stride endpoint out of range src=%d dst=%d cores=%d", src, dst, s.cores))
	}
	return (src*s.cores+dst)*NumStreams + int(stream)
}

// Encode implements Codec.
func (s *Stride) Encode(src, dst int, stream Stream, addr uint64) Encoded {
	p := s.pair(src, dst, stream)
	defer func() {
		s.senderBase[p] = addr
		s.senderSeen[p] = true
	}()
	if !s.senderSeen[p] {
		return Encoded{Compressed: false, PayloadBytes: 8, Payload: addr, InstallIndex: -1}
	}
	delta := int64(addr - s.senderBase[p])
	limit := int64(1) << (8*s.deltaBytes - 1)
	if delta >= -limit && delta < limit {
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
	p := s.pair(src, dst, stream)
	var addr uint64
	if e.Compressed {
		if !s.recvSeen[p] {
			panic(fmt.Sprintf("compress: stride receiver %d<-%d %v got delta before any base", dst, src, stream))
		}
		// Sign-extend the delta.
		shift := 64 - 8*s.deltaBytes
		delta := int64(e.Payload<<shift) >> shift
		addr = s.recvBase[p] + uint64(delta)
	} else {
		addr = e.Payload
	}
	s.recvBase[p] = addr
	s.recvSeen[p] = true
	return addr
}
