package cache

import "fmt"

// WaiterKind selects how a continuation parked on an MSHR entry resumes
// when the entry's transaction completes. The kinds encode the closure
// shapes the L1 controller used to allocate per miss (DESIGN.md §16):
// the controller interprets them against its own state, so a waiter is
// a plain value and parking one allocates nothing in steady state.
type WaiterKind uint8

const (
	// WaiterDone calls Done directly: the original requestor's
	// continuation (a prebound core callback).
	WaiterDone WaiterKind = iota
	// WaiterRetry re-runs the access path for Addr/IsWrite, then Done:
	// a same-block access that arrived while a transaction was live.
	WaiterRetry
	// WaiterFwd services a deferred intervention: the home named this
	// tile owner while its own ownership transaction was still in
	// flight. Addr/ReplyTo/Txn/IsWrite (exclusive) replay the forward.
	WaiterFwd
	// WaiterFinish closes out the demand miss's bookkeeping: latency
	// observation and the sampled trace span (Req/Addr/Start/SpanID).
	WaiterFinish
)

// Waiter is one parked continuation. Which fields are meaningful
// depends on Kind; unused fields are zero.
type Waiter struct {
	Kind WaiterKind
	// Addr is the block address (Retry, Fwd, Finish).
	Addr uint64
	// IsWrite: the retried access is a store (Retry) / the intervention
	// is exclusive (Fwd).
	IsWrite bool
	// ReplyTo is the requestor tile a deferred forward replies to (Fwd).
	ReplyTo int
	// Txn is the deferred forward's transaction id (Fwd).
	Txn uint64
	// Start is the miss's allocation cycle (Finish).
	Start uint64
	// SpanID is the sampled trace span id, 0 when untraced (Finish).
	SpanID uint64
	// Req is the original request type, opaque to this package (Finish).
	Req int
	// Done is the requestor continuation (Done, Retry).
	Done func()
}

// MSHR is the miss-status holding register file of an L1 cache: one entry
// per outstanding missing block. The in-order cores of tilesim block on
// misses, so the file is small; it still enforces capacity and coalesces
// same-block requests, and the writeback path uses it to keep evicted
// dirty lines addressable until the home acknowledges them.
//
// Like the hardware's register file, the live entries sit in a small
// slice that Lookup scans; it holds the demand registers plus whatever
// writeback overflow AllocateOver admits.
//
// Entries are pooled: Free recycles them onto a freelist and Allocate
// reuses them, so steady state allocates nothing per miss. Free
// poisons what it recycles (see Free), so a pointer used after its
// entry's Free reads no transaction's state.
type MSHR struct {
	cap  int
	live []*MSHREntry // live entries, in no particular order
	free *MSHREntry   // freelist of recycled entries
}

// poisonBlock is the block of a freed entry. Block addresses are
// line-aligned and this one is not, so it names no block.
const poisonBlock = ^uint64(0)

// MSHREntry tracks one outstanding transaction on a block.
type MSHREntry struct {
	Block uint64
	// Txn is the demand request's transaction id, which its replies
	// carry (zero for a writeback-buffer entry).
	Txn uint64
	// AllocAt records the allocation cycle (plain uint64 so the cache
	// package stays independent of the simulation kernel). The L1
	// controller stamps it and reads it back when the entry frees, for
	// MSHR-residency statistics; the protocol itself never uses it.
	AllocAt uint64
	// IsWrite records whether the original demand was a store.
	IsWrite bool
	// PendingAcks counts invalidation acks still expected before the
	// transaction completes.
	PendingAcks int
	// GotData records that the data response arrived (acks may trail).
	GotData bool
	// WritebackData marks a writeback-buffer entry: the line left the
	// cache but must still service forwarded requests until WBAck.
	WritebackData bool
	// Dirty records whether the writeback-buffered line was modified.
	Dirty bool
	// Forwarded marks a writeback-buffer entry whose ownership was
	// already passed to another tile by an intervention.
	Forwarded bool
	// GrantUpgrade records an AckNoData grant: upgrade the S line in
	// place instead of filling.
	GrantUpgrade bool
	// GrantExclusive records a DataExclusive grant: fill in E state.
	GrantExclusive bool
	// InvalidatedInFlight marks a read transaction whose copy was
	// invalidated by a racing write before the data arrived: the data is
	// delivered to the waiting core exactly once but not cached.
	InvalidatedInFlight bool
	// Waiters run when the transaction completes.
	Waiters []Waiter

	// Reply Partitioning state (optional extension):

	// GotPartial records that the critical-word partial reply arrived.
	GotPartial bool
	// AckCounted guards the AckCount, which rides on both the partial
	// and the ordinary reply and must be added exactly once.
	AckCounted bool
	// PartialWaiters run as soon as the requested word is available
	// (partial or full reply) and all acks are in; the processor
	// continues while the full line is still in flight.
	PartialWaiters []Waiter

	// next links the freelist.
	next *MSHREntry
}

// NewMSHR builds an MSHR file with the given capacity.
func NewMSHR(capacity int) *MSHR {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	return &MSHR{cap: capacity, live: make([]*MSHREntry, 0, capacity)}
}

// Full reports whether no further entries can be allocated.
func (m *MSHR) Full() bool { return len(m.live) >= m.cap }

// Len returns the number of live entries.
func (m *MSHR) Len() int { return len(m.live) }

// Lookup returns the entry for block, or nil.
func (m *MSHR) Lookup(block uint64) *MSHREntry {
	if i := m.index(block); i >= 0 {
		return m.live[i]
	}
	return nil
}

// index returns the live slot holding block's entry, or -1.
func (m *MSHR) index(block uint64) int {
	for i, e := range m.live {
		if e.Block == block {
			return i
		}
	}
	return -1
}

// take pops a pooled entry (or allocates the pool's next one) and
// resets every transaction field. The waiter slices keep their backing
// arrays, truncated to empty, so re-parking waiters does not allocate.
func (m *MSHR) take(block uint64) *MSHREntry {
	e := m.free
	if e == nil {
		e = &MSHREntry{}
	} else {
		m.free = e.next
		e.next = nil
	}
	ws, pws := e.Waiters[:0], e.PartialWaiters[:0]
	*e = MSHREntry{Block: block, Waiters: ws, PartialWaiters: pws}
	return e
}

// Allocate creates an entry for block. Allocating over capacity or for a
// block that already has an entry panics: the L1 controller must check
// Full/Lookup first.
func (m *MSHR) Allocate(block uint64) *MSHREntry {
	if m.Full() {
		panic("cache: MSHR overflow")
	}
	return m.AllocateOver(block)
}

// AllocateOver creates an entry for block even when the file is at
// capacity. Writeback buffers use it: an eviction triggered by a fill
// cannot be deferred, so the buffer may transiently exceed the register
// count (real controllers reserve dedicated writeback entries).
func (m *MSHR) AllocateOver(block uint64) *MSHREntry {
	if m.index(block) >= 0 {
		panic(fmt.Sprintf("cache: duplicate MSHR entry for block %#x", block))
	}
	e := m.take(block)
	m.live = append(m.live, e)
	return e
}

// Free releases the entry for block, appends its completion waiters to
// scratch (returning the extended slice), and recycles the entry onto
// the pool, poisoned: every transaction field is cleared, the block is
// poisonBlock and PendingAcks is -1, so a pointer used after the Free
// finds no transaction and its entry can never Complete. The caller
// runs the returned waiters from its own scratch buffer: by the time
// they run the entry is already poisoned, so a waiter that re-allocates
// the same block can never alias the dead transaction's state.
func (m *MSHR) Free(block uint64, scratch []Waiter) []Waiter {
	i := m.index(block)
	if i < 0 {
		panic(fmt.Sprintf("cache: freeing absent MSHR entry %#x", block))
	}
	e := m.live[i]
	last := len(m.live) - 1
	m.live[i] = m.live[last]
	m.live[last] = nil
	m.live = m.live[:last]
	scratch = append(scratch, e.Waiters...)
	clear(e.Waiters)
	clear(e.PartialWaiters)
	*e = MSHREntry{Block: poisonBlock, PendingAcks: -1,
		Waiters: e.Waiters[:0], PartialWaiters: e.PartialWaiters[:0], next: m.free}
	m.free = e
	return scratch
}

// Complete reports whether the transaction has everything it needs:
// data plus all invalidation acks.
func (e *MSHREntry) Complete() bool { return e.GotData && e.PendingAcks == 0 }
