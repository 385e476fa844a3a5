// Package core implements the paper's contribution: performance- and
// energy-efficient message management for tiled CMPs by combining
// dynamic address compression with a heterogeneous interconnect
// (Section 4).
//
// Every protocol message passes through the Manager on its way to the
// network:
//
//  1. If the message is a request or coherence command (the two
//     compressible streams), the configured address-compression codec
//     encodes its block address: on a hit the 11-byte message shrinks to
//     3 bytes of control plus 1-2 low-order bytes.
//  2. The message is mapped to a wire plane: critical messages that fit
//     the VL-Wire channel (compressed requests/commands and the already
//     3-byte coherence replies) ride the very-low-latency wires;
//     everything else — uncompressed short messages, data replies,
//     replacements — rides the baseline wires.
//
// The manager also shortcuts tile-local messages (an L1 talking to its
// own tile's L2 slice) past the network, counts compression coverage
// (Figure 2) and the per-plane traffic split, and reports compression
// events to the energy meter.
//
// Ordering note: a compressed message (VL plane) can physically overtake
// the uncompressed install message it depends on (B plane). Hardware
// resolves this with per-stream sequence numbers and a small reorder
// buffer at the receiving network interface; the simulator models the
// equivalent by committing the codec pair state atomically at send time
// and verifying the decode against the true address (see DESIGN.md).
package core

import (
	"fmt"

	"tilesim/internal/compress"
	"tilesim/internal/energy"
	"tilesim/internal/mesh"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
	"tilesim/internal/stats"
)

// LocalCycles is the latency of a tile-internal L1<->L2 hop.
const LocalCycles sim.Time = 1

// Manager is the per-chip message management unit.
type Manager struct {
	net   *mesh.Network
	codec compress.Codec
	// vlWidth is the network's VL channel width in bytes (3, 4 or 5 on
	// VL+B layouts, 11 for L+PW's L wires); 0 means no VL plane.
	vlWidth int
	meter   *energy.Meter // may be nil
	// deliver hands arrived messages to the protocol.
	deliver func(*noc.Message)

	// localQ carries tile-local messages past the network, LocalCycles
	// after their send.
	localQ *sim.DelayQueue[noc.Message]

	verifyDecode bool // off for the Perfect oracle codec

	// Statistics.
	Compressible stats.Counter // remote messages eligible for compression
	Compressed   stats.Counter // of those, how many hit
	VLMessages   stats.Counter
	BMessages    stats.Counter
	PWMessages   stats.Counter
	LocalMsgs    stats.Counter
	SavedBytes   stats.Counter // wire bytes removed by compression
	// FailoverMsgs counts critical messages that would have ridden the
	// VL wires but were steered to the bulk plane uncompressed because
	// an injected outage had the VL plane down at send time (the paper's
	// own fallback path for compression misses, reused for resilience).
	FailoverMsgs stats.Counter
}

// New wires a manager between the protocol and the network. codec is
// the address-compression scheme (compress.NewNone for the baseline);
// the VL channel width is the network's. deliver is the protocol's
// Deliver. meter may be nil.
func New(k *sim.Kernel, net *mesh.Network, codec compress.Codec, meter *energy.Meter, deliver func(*noc.Message)) *Manager {
	if codec == nil {
		panic("core: manager needs a codec (use compress.NewNone for the baseline)")
	}
	vlWidth := net.PlaneWidth(mesh.PlaneVL)
	_, isPerfect := codec.(*compress.Perfect)
	if want := noc.ControlBytes + codec.CompressedPayloadBytes(); vlWidth > 0 && vlWidth < want && !isPerfect {
		panic(fmt.Sprintf("core: VL channel %dB cannot carry compressed messages of %dB", vlWidth, want))
	}
	m := &Manager{
		net:          net,
		codec:        codec,
		vlWidth:      vlWidth,
		meter:        meter,
		deliver:      deliver,
		verifyDecode: !isPerfect,
	}
	m.localQ = sim.NewDelayQueue(k, LocalCycles, m.deliverLocal)
	for tile := 0; tile < net.Topology().Tiles(); tile++ {
		net.SetHandler(tile, func(_ *sim.Kernel, msg *noc.Message) { m.deliver(msg) })
	}
	return m
}

// deliverLocal hands a tile-local message to the protocol.
func (m *Manager) deliverLocal(msg *noc.Message) { m.deliver(msg) }

// streamOf maps a compressible message type to its hardware stream.
func streamOf(t noc.Type) compress.Stream {
	switch t {
	case noc.GetS, noc.GetX, noc.Upgrade:
		return compress.RequestStream
	case noc.Inv, noc.FwdGetS, noc.FwdGetX:
		return compress.CommandStream
	default:
		panic(fmt.Sprintf("core: %v has no compression stream", t))
	}
}

// Send sizes, compresses and routes one protocol message, writing the
// wire fields (SizeBytes, Compressed, VL, PW) into msg; the network and
// the local path carry their own copy, so msg is not retained.
func (m *Manager) Send(msg *noc.Message) {
	if msg.Src == msg.Dst {
		// Tile-local: L1 and home on the same tile; no link, no
		// compression, no network statistics (Figure 5 counts messages
		// that travel on the interconnect).
		msg.SizeBytes = msg.UncompressedSize()
		m.LocalMsgs.Inc()
		m.localQ.Push(*msg)
		return
	}
	msg.SizeBytes = msg.UncompressedSize()
	// Graceful degradation under an injected VL-plane outage: skip
	// compression entirely (keeping both codec endpoints' dictionaries
	// untouched, exactly as hardware would when the encoder is bypassed)
	// and let the message fall through to the bulk plane uncompressed —
	// the same fallback path a compression miss takes.
	vlDown := m.vlWidth > 0 && !m.net.PlaneUp(mesh.PlaneVL)
	if noc.Compressible(msg.Type) && !vlDown {
		m.compress(msg)
	}
	critical := noc.Critical(msg.Type) && !msg.Relaxed
	if vlDown && critical && (noc.Compressible(msg.Type) || msg.SizeBytes <= m.vlWidth) {
		m.FailoverMsgs.Inc()
	}
	switch {
	case critical && !vlDown && m.vlWidth > 0 && msg.SizeBytes <= m.vlWidth:
		msg.VL = true
		m.VLMessages.Inc()
	case (!critical || !m.net.HasPlane(mesh.PlaneB)) && m.net.HasPlane(mesh.PlanePW):
		// Reply Partitioning layouts: the non-critical bulk (ordinary
		// replies, replacements, revisions) rides power-optimized
		// wires. In the L+PW layout the PW channel is also the only
		// home for anything that does not fit the L channel.
		msg.PW = true
		m.PWMessages.Inc()
	default:
		m.BMessages.Inc()
	}
	m.net.Send(msg)
}

func (m *Manager) compress(msg *noc.Message) {
	stream := streamOf(msg.Type)
	m.Compressible.Inc()
	enc := m.codec.Encode(msg.Src, msg.Dst, stream, msg.Addr)
	// Commit the receiver state atomically (see the ordering note in
	// the package comment) and verify exact reconstruction.
	dec := m.codec.Decode(msg.Src, msg.Dst, stream, enc)
	if m.verifyDecode && dec != msg.Addr {
		panic(fmt.Sprintf("core: codec %s corrupted address %#x -> %#x", m.codec.Name(), msg.Addr, dec))
	}
	if m.meter != nil {
		m.meter.CompressionEvent()
	}
	if enc.Compressed {
		m.Compressed.Inc()
		size := noc.ControlBytes + enc.PayloadBytes
		m.SavedBytes.Add(uint64(msg.SizeBytes - size))
		msg.SizeBytes = size
		msg.Compressed = true
	}
}
