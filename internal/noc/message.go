// Package noc defines the on-chip network message model shared by the
// coherence protocol, the mesh, and the message-management policy: the
// message taxonomy of paper Figure 4, the criticality and size
// classification of Section 4.2, and the wire-format rules of Section 4.3
// (3-byte control header, 8-byte address, 64-byte cache line).
package noc

import "fmt"

// Type enumerates every message of the L1 coherence protocol (Figure 4).
type Type int

const (
	// Requests: L1 -> home L2, generated on L1 misses.
	GetS    Type = iota // read request
	GetX                // write / ownership request
	Upgrade             // S->M upgrade, no data needed

	// Responses: home L2 (or owner L1) -> requesting L1.
	Data          // response with the cache line
	DataExclusive // line granted in E state
	AckNoData     // response without data (e.g. upgrade grant, carries ack count)
	WBAck         // home acknowledges a writeback

	// Coherence commands: home L2 -> L1 caches.
	Inv     // invalidate a shared copy
	FwdGetS // intervention: owner must send the line to the requestor
	FwdGetX // intervention: owner must transfer ownership

	// Coherence replies: L1 -> home L2 or requestor.
	InvAck   // invalidation performed
	Revision // owner's copy back to home after an intervention (3b leg, may carry data)
	OwnAck   // requestor confirms an ownership grant completed (closes the home's busy window)

	// Replacements: L1 -> home L2 on evictions.
	WriteBack       // modified line eviction, carries data
	ReplacementHint // exclusive (clean) line eviction, control only

	// PartialReply is the Reply Partitioning extension (Flores et al.
	// [9], optional in tilesim): the critical word of a data response,
	// sent ahead of the full line so the processor can continue. The
	// matching full line travels as an ordinary Data/DataExclusive
	// message flagged Relaxed.
	PartialReply

	numTypes
)

// String returns the protocol name of the message type.
func (t Type) String() string {
	names := [...]string{
		"GetS", "GetX", "Upgrade",
		"Data", "DataExclusive", "AckNoData", "WBAck",
		"Inv", "FwdGetS", "FwdGetX",
		"InvAck", "Revision", "OwnAck",
		"WriteBack", "ReplacementHint",
		"PartialReply",
	}
	if t < 0 || int(t) >= len(names) {
		return fmt.Sprintf("Type(%d)", int(t))
	}
	return names[t]
}

// Class groups message types per Figure 4 / Figure 5 reporting.
type Class int

const (
	ClassRequest Class = iota
	ClassResponse
	ClassCoherenceCommand
	ClassCoherenceReply
	ClassReplacement

	NumClasses
)

// String returns the Figure 4 group name.
func (c Class) String() string {
	switch c {
	case ClassRequest:
		return "requests"
	case ClassResponse:
		return "responses"
	case ClassCoherenceCommand:
		return "coherence commands"
	case ClassCoherenceReply:
		return "coherence replies"
	case ClassReplacement:
		return "replacements"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ClassOf returns the Figure 4 group of a message type.
func ClassOf(t Type) Class {
	switch t {
	case GetS, GetX, Upgrade:
		return ClassRequest
	case Data, DataExclusive, AckNoData, WBAck, PartialReply:
		return ClassResponse
	case Inv, FwdGetS, FwdGetX:
		return ClassCoherenceCommand
	case InvAck, Revision, OwnAck:
		return ClassCoherenceReply
	case WriteBack, ReplacementHint:
		return ClassReplacement
	}
	panic(fmt.Sprintf("noc: unclassified message type %v", t))
}

// Wire-format constants of Section 4.3 / Table 4.
const (
	// ControlBytes is the header every message carries: source,
	// destination, message type, MSHR id.
	ControlBytes = 3
	// AddrBytes is the full block address.
	AddrBytes = 8
	// WordBytes is the critical word a PartialReply carries.
	WordBytes = 8
	// LineBytes is the cache line size.
	LineBytes = 64
	// ShortMax is the largest short message: control + address.
	ShortMax = ControlBytes + AddrBytes // 11
	// LongSize is a data-carrying message: control + line.
	LongSize = ControlBytes + LineBytes // 67
)

// HasAddr reports whether the type carries the 8-byte block address.
// Coherence replies and replacement hints are control-only (3 bytes);
// data-carrying messages identify the line via the transaction, spending
// their bytes on the cache line.
func HasAddr(t Type) bool {
	switch t {
	case GetS, GetX, Upgrade, AckNoData, WBAck, Inv, FwdGetS, FwdGetX:
		return true
	default:
		return false
	}
}

// CarriesData reports whether the type carries the 64-byte cache line.
// Revision carries data only when the owner's copy is dirty; that is a
// per-message property (Message.DataBytes), this is the static upper
// class.
func CarriesData(t Type) bool {
	switch t {
	case Data, DataExclusive, WriteBack, Revision:
		return true
	default:
		return false
	}
}

// Critical reports whether the type is on the critical path of an L1
// miss (Section 4.2): everything except replacements and revision legs.
// Messages can additionally be relaxed per instance (Message.Relaxed):
// under Reply Partitioning the ordinary full-line reply is non-critical
// because the partial reply already carried the needed word.
func Critical(t Type) bool {
	switch t {
	case WriteBack, ReplacementHint, Revision, WBAck:
		return false
	default:
		return true
	}
}

// Compressible reports whether the proposal's address-compression applies
// to this type: requests and coherence commands, each on its own
// hardware stream.
func Compressible(t Type) bool {
	switch t {
	case GetS, GetX, Upgrade, Inv, FwdGetS, FwdGetX:
		return true
	default:
		return false
	}
}

// Message is one protocol message. It is a plain value: the protocol
// builds it, the message manager sizes and routes it, and the mesh
// carries its own copy, so no layer shares a message with another.
type Message struct {
	Type Type
	// Src and Dst are tile ids.
	Src, Dst int
	// Addr is the block address (always tracked by the simulator; only
	// on the wire when HasAddr(Type)).
	Addr uint64
	// DataBytes is 64 for messages carrying the line, 0 otherwise
	// (Revision may be either).
	DataBytes int
	// Txn identifies the coherence transaction for matching at
	// endpoints.
	Txn uint64
	// AckCount rides in responses that tell the requestor how many
	// InvAcks to expect.
	AckCount int
	// ReplyTo is the tile that should receive the reply: the requestor
	// for forwarded interventions (FwdGetS/FwdGetX) and the ack target
	// for invalidations (the requestor on writes, the home on recalls).
	ReplyTo int
	// NoCopy marks a Revision from an owner that is not keeping a copy
	// (it was evicting or invalidated), so the directory must not list
	// it as a sharer.
	NoCopy bool
	// Recall marks an Inv sent for an L2 inclusion recall (a distinct
	// invalidation flavour in hardware): the target must relinquish the
	// line even if its own transaction on it is mid-flight.
	Recall bool
	// Relaxed demotes this instance off the critical path: set on the
	// ordinary (full-line) reply when Reply Partitioning already sent
	// the critical word ahead as a PartialReply.
	Relaxed bool

	// Wire-level fields, set by the message manager before injection.

	// SizeBytes is the on-wire size after compression.
	SizeBytes int
	// Compressed reports whether the address was compressed.
	Compressed bool
	// VL reports whether the message rides the low-latency wire plane.
	VL bool
	// PW reports whether the message rides the power-optimized plane
	// (Reply Partitioning layouts only). VL and PW are exclusive.
	PW bool
}

// UncompressedSize returns the on-wire size in bytes before any
// compression: 3-byte control, plus 8-byte address if carried, plus the
// data payload (a partial reply's payload is the 8-byte critical word).
func (m *Message) UncompressedSize() int {
	size := ControlBytes + m.DataBytes
	if HasAddr(m.Type) {
		size += AddrBytes
	}
	if m.Type == PartialReply {
		size += WordBytes
	}
	return size
}

// Short reports whether the message (uncompressed) is a short message
// per Section 4.2 (<= 11 bytes).
func (m *Message) Short() bool { return m.UncompressedSize() <= ShortMax }

// Validate checks internal consistency; the mesh refuses malformed
// messages at injection.
func (m *Message) Validate(cores int) error {
	if m.Src < 0 || m.Src >= cores || m.Dst < 0 || m.Dst >= cores {
		return fmt.Errorf("noc: message %v endpoints out of range: %d->%d", m.Type, m.Src, m.Dst)
	}
	if m.Src == m.Dst {
		return fmt.Errorf("noc: message %v to self at tile %d", m.Type, m.Src)
	}
	if m.DataBytes != 0 && m.DataBytes != LineBytes {
		return fmt.Errorf("noc: message %v with %d data bytes", m.Type, m.DataBytes)
	}
	if m.DataBytes == LineBytes && !CarriesData(m.Type) {
		return fmt.Errorf("noc: message %v cannot carry data", m.Type)
	}
	if m.SizeBytes <= 0 {
		return fmt.Errorf("noc: message %v injected without wire size", m.Type)
	}
	return nil
}

// FlitCount is a number of flits — the serialization quanta a message
// is chopped into on a wire plane. A defined type so flit math cannot
// silently mix with byte or cycle counts (see tilesimvet's units
// analyzer).
//
//tilesim:unit flits
type FlitCount int

// Flits returns the number of width-byte flits a size-byte message
// serializes into.
func Flits(sizeBytes, widthBytes int) FlitCount {
	if widthBytes <= 0 {
		panic("noc: flit width must be positive")
	}
	if sizeBytes <= 0 {
		panic("noc: message size must be positive")
	}
	return FlitCount((sizeBytes + widthBytes - 1) / widthBytes)
}
