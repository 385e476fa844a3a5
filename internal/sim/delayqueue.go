package sim

// DelayQueue is a FIFO of value records, each handed to one handler a
// fixed delay after its push. It replaces "schedule one closure per
// step" for every constant-latency step of a component: Push appends
// the record and schedules the queue's single prebound event, and each
// firing of that event dispatches the oldest record.
//
// Because every push schedules the same delay, the kernel fires the
// queue's events in push order (DESIGN.md §16.2): the i-th firing
// dispatches the i-th push. Each Schedule call keeps the delay and the
// position in the kernel's (at, seq) order that a per-push closure
// would have had, so converting a closure site to a DelayQueue is
// bit-identical, and the steady state allocates nothing: the backing
// slice is reused (see dispatch).
type DelayQueue[T any] struct {
	k      *Kernel
	delay  Time
	items  []T // pending records, oldest at head
	head   int
	fire   Event
	handle func(*T)
}

// NewDelayQueue returns an empty queue on k whose records reach handle
// delay cycles after their push. The *T passed to handle points into
// the queue and is valid only during the call; a handler that needs the
// record later must copy it. Handlers may push onto any queue, this one
// included.
func NewDelayQueue[T any](k *Kernel, delay Time, handle func(*T)) *DelayQueue[T] {
	q := &DelayQueue[T]{k: k, delay: delay, handle: handle}
	q.fire = q.dispatch
	return q
}

// Push queues v for dispatch delay cycles from now. It only ever
// appends, so a record being handled never moves: if append has to
// grow the storage, the handler's pointer keeps the old array alive.
func (q *DelayQueue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.k.Schedule(q.delay, q.fire)
}

// dispatch hands the oldest record to the handler in place, then
// retires it. The storage rewinds once drained; a queue that never
// drains (a busy chip's memory fills, a core's run of L1 hits) instead
// slides its backlog to the front once the storage is full and at
// least half of it is dispatched, so it stays within about twice its
// peak backlog.
func (q *DelayQueue[T]) dispatch() {
	q.handle(&q.items[q.head])
	var zero T
	q.items[q.head] = zero // release references for GC
	q.head++
	switch {
	case q.head == len(q.items):
		q.items, q.head = q.items[:0], 0
	case len(q.items) == cap(q.items) && 2*q.head >= len(q.items):
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
}
