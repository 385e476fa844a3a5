// Package sim provides a deterministic, single-threaded, event-driven
// simulation kernel used by every timed component in tilesim (routers,
// caches, directories, cores).
//
// Time is measured in integer clock cycles of the global 4 GHz clock
// (see internal/cmp for the system clock definition). Events scheduled
// for the same cycle fire in FIFO order of scheduling, which makes every
// simulation bit-reproducible for a fixed input.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, in clock cycles.
//
//tilesim:unit cycles
type Time uint64

// Event is a callback scheduled to run at a particular cycle.
type Event func()

type scheduledEvent struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-cycle events
	fn  Event
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq).
// container/heap would box every scheduledEvent into an interface on
// Push and Pop — one heap allocation per event, which at ~2M events per
// MP3D run was the kernel's entire allocation bill. Because (at, seq)
// is unique per event the ordering is a strict total order, so the pop
// sequence of any correct min-heap is identical and the swap to a
// concrete heap preserves bit-for-bit reproducibility.
//
// Since the timing wheel took over the near-future events the heap only
// holds the far-future overflow (timers at least wheelSlots cycles out:
// epoch-series pollers, long outage windows), so it stays tiny.
type eventHeap []scheduledEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push copies ev into the heap slice and sifts it up.
func (h *eventHeap) push(ev scheduledEvent) {
	*h = append(*h, ev)
	s := *h
	// Sift the new element up to its place.
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes the earliest event and returns it by value, shrinking
// the heap slice in place.
func (h *eventHeap) pop() scheduledEvent {
	s := *h
	n := len(s) - 1
	min := s[0]
	s[0] = s[n]
	s[n] = scheduledEvent{} // release the callback for GC
	*h = s[:n]
	s = s[:n]
	// Sift the relocated tail element down to its place.
	for i := 0; ; {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && s.less(right, left) {
			child = right
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return min
}

// wheelSlots is the calendar width of the timing wheel: events within
// [now, now+wheelSlots) land in a slot, everything further out falls
// back to the overflow heap. 512 covers every fixed component latency
// (the 400-cycle memory access is the largest) with headroom, so the
// dominant event population — hops, cache lookups, protocol delays —
// never touches the heap. Must be a power of two for the slot mask.
const wheelSlots = 512

const wheelMask = wheelSlots - 1

// wheelSlot is one calendar slot: a FIFO of the events scheduled for
// the single cycle in the current window that maps to this slot. head
// indexes the next event to pop; the backing slice is reused once the
// slot drains, so a steady-state slot never reallocates.
type wheelSlot struct {
	evs  []Event
	head int
}

// Kernel is the event queue and simulated clock: a calendar (timing
// wheel) for the dominant near-future events plus a binary-heap
// overflow for far-future timers. The zero value is not ready to use;
// call NewKernel.
//
// Ordering invariant (why the wheel preserves the heap's exact pop
// order, DESIGN.md §16): events pop in strictly increasing (at, seq).
// Within one wheel slot, append order is seq order, because seq grows
// monotonically with insertion and a slot maps to exactly one cycle of
// the current window. Across the wheel/heap boundary, for any equal
// `at` every heap event was inserted when at >= now+wheelSlots while
// every wheel event was inserted when at < now+wheelSlots — so the
// heap insertions happened at strictly earlier kernel times and carry
// strictly smaller seq. Popping the heap first on an equal-`at` tie is
// therefore exactly the (at, seq) order, with no migration needed.
type Kernel struct {
	now Time
	seq uint64

	wheel      [wheelSlots]wheelSlot
	wheelCount int
	overflow   eventHeap

	// processed counts events executed since construction, for stats
	// and runaway detection.
	processed uint64
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulated cycle.
func (k *Kernel) Now() Time { return k.now }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of events waiting in the queue.
func (k *Kernel) Pending() int { return k.wheelCount + len(k.overflow) }

// Schedule runs fn after delay cycles (delay 0 means later this cycle,
// after all currently queued same-cycle events).
func (k *Kernel) Schedule(delay Time, fn Event) {
	k.ScheduleAt(k.now+delay, fn)
}

// ScheduleAt runs fn at absolute cycle at. Scheduling in the past panics:
// it is always a component bug, and silently reordering events would
// destroy reproducibility.
func (k *Kernel) ScheduleAt(at Time, fn Event) {
	if at < k.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (at=%d, now=%d)", at, k.now))
	}
	if fn == nil {
		panic("sim: nil event")
	}
	k.seq++
	if at-k.now < wheelSlots {
		s := &k.wheel[at&wheelMask]
		s.evs = append(s.evs, fn)
		k.wheelCount++
		return
	}
	k.overflow.push(scheduledEvent{at: at, seq: k.seq, fn: fn})
}

// nextSlot scans the calendar from the current cycle for the earliest
// non-empty slot. The scan distance is the idle gap to the next event,
// so over a run it amortizes to O(elapsed cycles + events) — and the
// event rate of a busy simulation keeps the common case at distance 0.
// Callers must check wheelCount > 0 first.
func (k *Kernel) nextSlot() (*wheelSlot, Time) {
	for d := Time(0); d < wheelSlots; d++ {
		at := k.now + d
		s := &k.wheel[at&wheelMask]
		if s.head < len(s.evs) {
			return s, at
		}
	}
	panic("sim: wheel count out of sync with slots")
}

// nextEventAt reports the earliest pending event's cycle.
func (k *Kernel) nextEventAt() (Time, bool) {
	var at Time
	have := false
	if len(k.overflow) > 0 {
		at, have = k.overflow[0].at, true
	}
	if k.wheelCount > 0 {
		if _, wAt := k.nextSlot(); !have || wAt < at {
			at = wAt
		}
		have = true
	}
	return at, have
}

// Step executes the single earliest event, advancing the clock to its
// timestamp. It returns false if the queue is empty.
func (k *Kernel) Step() bool {
	if k.wheelCount > 0 {
		s, at := k.nextSlot()
		// On an equal-cycle tie the overflow event always pops first:
		// it was scheduled when this cycle was still outside the wheel
		// window, hence strictly earlier, hence with a smaller seq (see
		// the Kernel ordering invariant).
		if len(k.overflow) == 0 || k.overflow[0].at > at {
			fn := s.evs[s.head]
			s.evs[s.head] = nil // release the callback for GC
			s.head++
			if s.head == len(s.evs) {
				s.evs = s.evs[:0]
				s.head = 0
			}
			k.wheelCount--
			k.now = at
			k.processed++
			fn()
			return true
		}
	} else if len(k.overflow) == 0 {
		return false
	}
	ev := k.overflow.pop()
	k.now = ev.at
	k.processed++
	ev.fn()
	return true
}

// Run executes events until the queue drains or until stop returns true.
// A nil stop runs to completion. Run returns the cycle at which it
// stopped.
func (k *Kernel) Run(stop func() bool) Time {
	for {
		if stop != nil && stop() {
			return k.now
		}
		if !k.Step() {
			return k.now
		}
	}
}

// RunUntil executes events with timestamps <= deadline. Events beyond the
// deadline remain queued; the clock is left at min(deadline, last event).
func (k *Kernel) RunUntil(deadline Time) Time {
	for {
		at, ok := k.nextEventAt()
		if !ok || at > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline && k.Pending() > 0 {
		// Clock does not jump past queued events.
		return k.now
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.now
}
