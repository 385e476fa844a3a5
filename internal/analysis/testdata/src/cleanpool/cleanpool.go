// Package cleanpool is the poollife negative control: every sanctioned
// pooled-lifetime idiom in one file — a by-key release
// (//tilesim:release entry, the MSHR.Free shape), hand-off on one
// branch with release on the other, an acquire on every path into an
// argument release, the read-everything-then-release-at-the-tail
// Deliver shape, and a loop-local acquire/release pair — and must
// produce zero findings.
package cleanpool

// entry is the pooled object.
type entry struct {
	key  int
	next *entry
}

// table owns the pool: a by-key live map over an intrusive freelist.
type table struct {
	live map[int]*entry
	free *entry
}

// Alloc takes an entry from the freelist and registers it under key.
//
//tilesim:pool
func (t *table) Alloc(key int) *entry {
	e := t.free
	if e == nil {
		e = &entry{}
	} else {
		t.free = e.next
	}
	e.key = key
	t.live[key] = e
	return e
}

// Drop releases the entry registered under key — a by-key release, so
// the annotation names the pooled type.
//
//tilesim:release entry
func (t *table) Drop(key int) {
	e := t.live[key]
	delete(t.live, key)
	e.next = t.free
	t.free = e
}

// Recycle returns a detached entry to the freelist directly.
//
//tilesim:release
func (t *table) Recycle(e *entry) {
	e.next = t.free
	t.free = e
}

// dropByKey reads everything it needs before the by-key release.
func dropByKey(t *table) int {
	e := t.Alloc(3)
	k := e.key
	t.Drop(3)
	return k
}

// branchRelease hands off on one path and releases on the other; the
// handed-off path returns, so its state never merges back.
func branchRelease(t *table, send func(*entry), cond bool) {
	e := t.Alloc(4)
	if cond {
		send(e)
		return
	}
	t.Recycle(e)
}

// bothBranches acquires on every path into the release, so the release
// is dominated.
func bothBranches(t *table, cond bool) {
	var e *entry
	if cond {
		e = t.Alloc(5)
	} else {
		e = t.Alloc(6)
	}
	e.key++
	t.Recycle(e)
}

// deliverShape is the Protocol.Deliver contract done right: extract,
// dispatch, release at the tail, touch nothing afterwards.
func deliverShape(t *table, sink func(int)) {
	e := t.Alloc(7)
	sink(e.key)
	t.Recycle(e)
}

// loopLocal acquires and releases within each iteration; the rebind at
// the top of the body starts a fresh lifetime every round.
func loopLocal(t *table, n int) {
	for i := 0; i < n; i++ {
		e := t.Alloc(i)
		e.key = i
		t.Recycle(e)
	}
}
