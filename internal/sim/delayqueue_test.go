package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDelayQueueDispatchesInPushOrder pins the basic contract at delay 0
// and at a positive delay: records reach the handler in push order,
// delay cycles after their push, and a record pushed from inside the
// handler queues behind the ones already waiting without disturbing the
// record being handled.
func TestDelayQueueDispatchesInPushOrder(t *testing.T) {
	for _, delay := range []Time{0, 3} {
		k := NewKernel()
		type rec struct {
			id     int
			pushed Time
		}
		var got []int
		var q *DelayQueue[rec]
		q = NewDelayQueue(k, delay, func(r *rec) {
			if k.Now() != r.pushed+delay {
				t.Errorf("delay %d: record %d dispatched at %d, pushed at %d", delay, r.id, k.Now(), r.pushed)
			}
			id := r.id
			if id < 3 {
				// Re-entrant push: must land behind records 1..3.
				q.Push(rec{id: id + 10, pushed: k.Now()})
			}
			if r.id != id {
				t.Errorf("delay %d: handled record rewritten by a push from its own handler", delay)
			}
			got = append(got, id)
		})
		for i := 0; i < 4; i++ {
			q.Push(rec{id: i})
		}
		if len(q.items)-q.head != 4 {
			t.Fatalf("delay %d: %d records pending after four pushes", delay, len(q.items)-q.head)
		}
		k.Run(nil)
		want := []int{0, 1, 2, 3, 10, 11, 12}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("delay %d: dispatch order %v, want %v", delay, got, want)
		}
		if len(q.items)-q.head != 0 {
			t.Errorf("delay %d: %d records left after drain", delay, len(q.items)-q.head)
		}
	}
}

// TestDelayQueueStorageTracksBacklog checks that a queue that never
// drains reuses its storage: with a constant backlog of five records
// (every handler pushes a successor), ten thousand dispatches must not
// grow the backing slice beyond a small multiple of the backlog.
func TestDelayQueueStorageTracksBacklog(t *testing.T) {
	k := NewKernel()
	pushed, dispatched := 0, 0
	var q *DelayQueue[int]
	push := func() { q.Push(pushed); pushed++ }
	q = NewDelayQueue(k, 7, func(v *int) {
		if *v != dispatched {
			t.Fatalf("dispatched record %d, want %d", *v, dispatched)
		}
		dispatched++
		if pushed < 10000 {
			push()
		}
	})
	for i := 0; i < 5; i++ {
		push()
	}
	k.Run(nil)
	if dispatched != 10000 {
		t.Fatalf("dispatched %d records, want 10000", dispatched)
	}
	if c := cap(q.items); c > 16 {
		t.Errorf("backing slice grew to %d for a backlog of 5", c)
	}
}

// pusher is what the order property drives: a DelayQueue, or the
// closure-per-push shape it replaces.
type pusher[T any] interface{ Push(T) }

// closurePush is the reference: every push schedules its own closure
// capturing the record, the shape the deleted job freelists reproduced.
type closurePush[T any] struct {
	k      *Kernel
	delay  Time
	handle func(*T)
}

func (c *closurePush[T]) Push(v T) { c.k.Schedule(c.delay, func() { c.handle(&v) }) }

// dqRec carries a payload derived from its id, so a handler that sees a
// record overwritten by a later push notices.
type dqRec struct {
	id      int
	payload uint64
}

func recFor(id int) dqRec { return dqRec{id: id, payload: uint64(id)*2654435761 + 1} }

// mix is a splitmix64 step: a cheap stateless hash for per-record
// program choices.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// runDelayProgram runs one seeded program of fixed-delay steps and
// returns its execution log. Three queues (the first two sharing one
// delay, the third at delay 0) and plain kernel events interleave; each
// handled record pushes follow-ups chosen only by (seed, id), so the
// queue and closure runs stay in step until their first ordering
// difference.
func runDelayProgram(t *testing.T, seed int64, shared Time, queues bool) []string {
	const maxRecs = 3000
	k := NewKernel()
	var log []string
	next := 0
	var ps [3]pusher[dqRec]
	handler := func(q int) func(*dqRec) {
		return func(r *dqRec) {
			if *r != recFor(r.id) {
				t.Fatalf("seed %d: queue %d handed a corrupted record %+v", seed, q, *r)
			}
			log = append(log, fmt.Sprintf("q%d:%d@%d", q, r.id, k.Now()))
			h := mix(uint64(seed)<<32 + uint64(r.id))
			for n := h % 3; n > 0 && next < maxRecs; n-- {
				h = mix(h)
				ps[h%3].Push(recFor(next))
				next++
			}
		}
	}
	delays := [3]Time{shared, shared, 0}
	for i := range ps {
		if queues {
			ps[i] = NewDelayQueue(k, delays[i], handler(i))
		} else {
			ps[i] = &closurePush[dqRec]{k: k, delay: delays[i], handle: handler(i)}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 40; i++ {
		id, q := i, rng.Intn(3)
		k.Schedule(Time(rng.Intn(20)), func() {
			log = append(log, fmt.Sprintf("ev:%d@%d", id, k.Now()))
			ps[q].Push(recFor(next))
			next++
		})
	}
	k.Run(nil)
	return log
}

// TestDelayQueueMatchesClosurePerPush is the property behind converting
// every fixed-delay closure site to a DelayQueue (DESIGN.md §16.2): for
// seeded programs with pushes from inside handlers, two queues sharing
// a delay, a zero-delay queue and unrelated kernel events, the queue run
// and the closure-per-push run execute the same (queue, record, cycle)
// sequence. Delays cover same-cycle ties, the timing wheel and the
// overflow heap.
func TestDelayQueueMatchesClosurePerPush(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, shared := range []Time{0, 1, 6, wheelSlots + 3} {
			want := runDelayProgram(t, seed, shared, false)
			got := runDelayProgram(t, seed, shared, true)
			if len(want) < 100 {
				t.Fatalf("seed %d delay %d: program ran only %d steps", seed, shared, len(want))
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d delay %d: queues ran %d steps, closures %d", seed, shared, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d delay %d: divergence at step %d: queues ran %s, closures %s",
						seed, shared, i, got[i], want[i])
				}
			}
		}
	}
}
