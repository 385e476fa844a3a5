package cache

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestGeometry(t *testing.T) {
	l1 := New(L1Config())
	if l1.sets != 128 {
		t.Errorf("L1 sets = %d, want 128", l1.sets)
	}
	l2 := New(L2SliceConfig())
	if l2.sets != 1024 {
		t.Errorf("L2 sets = %d, want 1024", l2.sets)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	bad := []Config{
		{CapacityBytes: 32 << 10, Ways: 4, LineBytes: 48},   // non-pow2 line
		{CapacityBytes: 0, Ways: 4, LineBytes: 64},          // zero capacity
		{CapacityBytes: 32 << 10, Ways: 0, LineBytes: 64},   // zero ways
		{CapacityBytes: 3 * 64 * 5, Ways: 4, LineBytes: 64}, // ragged
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad geometry %d accepted", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHitMissAndLRU(t *testing.T) {
	// Tiny cache: 2 ways, 2 sets (256 B).
	c := New(Config{CapacityBytes: 256, Ways: 2, LineBytes: 64})
	a, b, x := uint64(0x0000), uint64(0x0100), uint64(0x0200) // same set (set 0)
	if c.Access(a) != nil {
		t.Fatal("cold access hit")
	}
	c.Insert(a, Shared)
	c.Insert(b, Shared)
	if c.Access(a) == nil || c.Access(b) == nil {
		t.Fatal("warm access missed")
	}
	c.Access(a) // a MRU, b LRU
	old := c.Insert(x, Shared)
	if !old.Valid() || old.Block() != b {
		t.Fatalf("evicted %+v, want block %#x", old, b)
	}
	if c.Probe(a) == nil || c.Probe(x) == nil || c.Probe(b) != nil {
		t.Fatal("post-eviction contents wrong")
	}
	hits, misses, evicts := c.Stats()
	if hits != 3 || misses != 1 || evicts != 1 {
		t.Fatalf("stats = %d/%d/%d, want 3/1/1", hits, misses, evicts)
	}
}

func TestInsertIntoFreeWayEvictsNothing(t *testing.T) {
	c := New(Config{CapacityBytes: 256, Ways: 2, LineBytes: 64})
	if old := c.Insert(0x40, Modified); old.Valid() {
		t.Fatalf("eviction from empty set: %+v", old)
	}
	if n := occupancy(c); n != 1 {
		t.Fatalf("occupancy %d", n)
	}
}

// occupancy counts c's valid lines.
func occupancy(c *Cache) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid() {
			n++
		}
	}
	return n
}

// TestVictimWhereTakesLRUAcceptedWay fills a 4-way set, touches way 0
// last, and checks that the victim is the least-recently-used way the
// predicate accepts, that accepting the LRU way costs one predicate
// call, and that a predicate accepting no way yields nil.
func TestVictimWhereTakesLRUAcceptedWay(t *testing.T) {
	c := New(Config{CapacityBytes: 256, Ways: 4, LineBytes: 64})
	if v := c.VictimWhere(0, func(*Line) bool { panic("predicate called on a free way") }); v.Valid() {
		t.Fatalf("victim in an empty set holds %#x", v.Block())
	}
	for _, b := range []uint64{0x000, 0x100, 0x200, 0x300} { // one set
		c.Insert(b, Shared)
	}
	c.Access(0x000)
	calls := 0
	all := func(*Line) bool { calls++; return true }
	if v := c.VictimWhere(0x400, all); v.Block() != 0x100 || calls != 1 {
		t.Fatalf("victim %#x after %d predicate calls, want the LRU way 0x100 after 1", v.Block(), calls)
	}
	if v := c.VictimWhere(0x400, func(l *Line) bool { return l.Block() != 0x100 }); v.Block() != 0x200 {
		t.Fatalf("victim %#x with the LRU way refused, want the next oldest 0x200", v.Block())
	}
	if v := c.VictimWhere(0x400, func(*Line) bool { return false }); v != nil {
		t.Fatalf("victim %#x with every way refused, want nil", v.Block())
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	c := New(Config{CapacityBytes: 256, Ways: 2, LineBytes: 64})
	c.Insert(0x40, Shared)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert accepted")
		}
	}()
	c.Insert(0x40, Modified)
}

func TestInvalidate(t *testing.T) {
	c := New(Config{CapacityBytes: 256, Ways: 2, LineBytes: 64})
	c.Insert(0x40, Modified)
	if st := c.Invalidate(0x40); st != Modified {
		t.Fatalf("invalidate returned %v, want M", st)
	}
	if st := c.Invalidate(0x40); st != Invalid {
		t.Fatalf("re-invalidate returned %v, want I", st)
	}
	if occupancy(c) != 0 {
		t.Fatal("line still present")
	}
}

func TestBlockAlignment(t *testing.T) {
	c := New(L1Config())
	c.Insert(0x1234, Shared) // not block-aligned
	if c.Probe(0x1200) == nil || c.Probe(0x123f) == nil {
		t.Fatal("addresses in the same block must hit")
	}
	if c.Probe(0x1240) != nil {
		t.Fatal("next block must miss")
	}
}

// Property: occupancy never exceeds capacity and a just-inserted block is
// always present.
func TestInsertProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(Config{CapacityBytes: 1024, Ways: 4, LineBytes: 64})
		for _, a := range addrs {
			addr := uint64(a)
			if c.Probe(addr) == nil {
				c.Insert(addr, Shared)
			}
			if c.Probe(addr) == nil {
				return false
			}
			if occupancy(c) > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: LRU never evicts the most recently used line of a set.
func TestLRUNeverEvictsMRUProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{CapacityBytes: 512, Ways: 2, LineBytes: 64})
		var lastTouched uint64
		touched := false
		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(32)) * 64
			if l := c.Access(addr); l == nil {
				v := c.Victim(addr)
				if touched && v.Valid() && v.Block() == lastTouched && c.BlockOf(lastTouched) != c.BlockOf(addr) {
					// MRU eviction is only legal if the set has a single way
					// holding it; with 2 ways it is a bug.
					return false
				}
				c.Insert(addr, Shared)
			}
			lastTouched = c.BlockOf(addr)
			touched = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRLifecycle(t *testing.T) {
	m := NewMSHR(2)
	e := m.Allocate(0x40)
	e.IsWrite = true
	e.PendingAcks = 2
	if e.Complete() {
		t.Fatal("incomplete entry reports complete")
	}
	e.GotData = true
	e.PendingAcks = 0
	if !e.Complete() {
		t.Fatal("complete entry reports incomplete")
	}
	called := 0
	e.Waiters = append(e.Waiters, Waiter{Kind: WaiterDone, Done: func() { called++ }})
	for _, w := range m.Free(0x40, nil) {
		w.Done()
	}
	if called != 1 {
		t.Fatal("waiter not returned")
	}
	if m.Lookup(0x40) != nil {
		t.Fatal("entry survived Free")
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(0x40)
	if !m.Full() {
		t.Fatal("full MSHR not reported")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overflow accepted")
		}
	}()
	m.Allocate(0x80)
}

// TestMSHRFreeKeepsOtherEntries frees entries from the middle, the end
// and the front of the live slice, and past capacity through
// AllocateOver, and checks that every other block still finds its own
// entry.
func TestMSHRFreeKeepsOtherEntries(t *testing.T) {
	m := NewMSHR(4)
	live := map[uint64]*MSHREntry{}
	for _, b := range []uint64{0x40, 0x80, 0xc0, 0x100} {
		live[b] = m.Allocate(b)
	}
	live[0x140] = m.AllocateOver(0x140)
	for _, b := range []uint64{0x80, 0x140, 0x40, 0x100, 0xc0} {
		m.Free(b, nil)
		delete(live, b)
		if m.Lookup(b) != nil {
			t.Fatalf("freed block %#x still found", b)
		}
		if m.Len() != len(live) {
			t.Fatalf("Len() = %d after freeing %#x, want %d", m.Len(), b, len(live))
		}
		for other, e := range live {
			if got := m.Lookup(other); got != e || got.Block != other {
				t.Fatalf("after freeing %#x, Lookup(%#x) = %p, want %p", b, other, got, e)
			}
		}
	}
}

func TestMSHRDuplicatePanics(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(0x40)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate allocate accepted")
		}
	}()
	m.Allocate(0x40)
}

// TestMSHRFreeAbsentPanics frees a block the file does not hold: one
// never allocated, and one freed already (a double release of the
// pooled entry).
func TestMSHRFreeAbsentPanics(t *testing.T) {
	const want = "cache: freeing absent MSHR entry"
	for _, c := range []struct {
		name    string
		prepare func(m *MSHR)
	}{
		{"never allocated", func(*MSHR) {}},
		{"freed twice", func(m *MSHR) {
			m.Allocate(0x40)
			m.Free(0x40, nil)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewMSHR(4)
			c.prepare(m)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, want) {
					t.Fatalf("free of absent entry: panic %q, want one containing %q", msg, want)
				}
			}()
			m.Free(0x40, nil)
		})
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(L1Config())
	rng := rand.New(rand.NewSource(7))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<16)) &^ 63
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		if c.Access(a) == nil {
			c.Insert(a, Shared)
		}
	}
}

// TestLineIsSixteenBytes pins the packed line layout: the state rides
// in the tag and the LRU stamp and Aux share one word, so a 4-way set
// of the paper's L1 and L2 slice is one 64-byte host cache line and
// starts on one.
func TestLineIsSixteenBytes(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want 16", got)
	}
	for _, cfg := range []Config{L1Config(), L2SliceConfig()} {
		c := New(cfg)
		if at := uintptr(unsafe.Pointer(&c.lines[0])); at%64 != 0 {
			t.Errorf("%d-byte cache: line array at %#x is not 64-byte aligned", cfg.CapacityBytes, at)
		}
	}
}

// TestSlabCachesNeverAlias carves caches of each of the paper's
// geometries from one slab, two more than a chunk holds, so the slab
// crosses a chunk boundary, and fills every way of every set of each
// in turn with blocks of its own: every cache must still hold all of
// its blocks and nothing else. Each cache's lines must end where their
// capacity does, so no append or reslice reaches a neighbour, and
// start on a 64-byte boundary, like a lone cache's.
func TestSlabCachesNeverAlias(t *testing.T) {
	for _, cfg := range []Config{L1Config(), L2SliceConfig()} {
		cs := NewSlab(cfg, slabChunkLines/(cfg.CapacityBytes/cfg.LineBytes)+2)
		// Cache i's blocks: consecutive blocks fill consecutive sets,
		// so the first sets*ways fill every way of every set, tagged
		// with i above every index bit.
		block := func(i, b int) uint64 { return uint64(i)<<40 | uint64(b*cfg.LineBytes) }
		for i := range cs {
			c := &cs[i]
			if len(c.lines) != cap(c.lines) || len(c.lines) != c.sets*cfg.Ways {
				t.Fatalf("%d-byte cache %d: %d lines with capacity %d, want %d and %d",
					cfg.CapacityBytes, i, len(c.lines), cap(c.lines), c.sets*cfg.Ways, c.sets*cfg.Ways)
			}
			if at := uintptr(unsafe.Pointer(&c.lines[0])); at%64 != 0 {
				t.Errorf("%d-byte cache %d: line array at %#x is not 64-byte aligned", cfg.CapacityBytes, i, at)
			}
			for b := range len(c.lines) {
				c.Insert(block(i, b), Exclusive)
			}
		}
		for i := range cs {
			c := &cs[i]
			if got := occupancy(c); got != len(c.lines) {
				t.Fatalf("%d-byte cache %d: %d of %d lines valid after every fill", cfg.CapacityBytes, i, got, len(c.lines))
			}
			for b := range len(c.lines) {
				if c.Probe(block(i, b)) == nil {
					t.Fatalf("%d-byte cache %d of %d lost block %#x to a neighbour's fill", cfg.CapacityBytes, i, len(cs), block(i, b))
				}
			}
		}
	}
}

// TestStateRidesInTheTag checks the packed tag: every state of every
// block, block 0 included, reads back through Block and State, and
// SetState refuses to drop a line or to revive a free way.
func TestStateRidesInTheTag(t *testing.T) {
	c := New(Config{CapacityBytes: 1024, Ways: 4, LineBytes: 4})
	for _, block := range []uint64{0, 4, 1 << 40, 1<<64 - 4} {
		c.Insert(block, Shared)
		l := c.Probe(block)
		for _, st := range []State{Shared, Exclusive, Modified, Shared} {
			l.SetState(st)
			if got := c.Probe(block); got != l || l.Block() != block || l.State() != st || !l.Valid() {
				t.Fatalf("block %#x in %v reads back as %#x in %v (probe %p, line %p)",
					block, st, l.Block(), l.State(), got, l)
			}
		}
		if c.Probe(block^4) != nil {
			t.Fatalf("probe of %#x matched block %#x", block^4, block)
		}
		if st := c.Invalidate(block); st != Shared || l.Valid() || l.State() != Invalid {
			t.Fatalf("invalidating %#x returned %v and left %+v", block, st, *l)
		}
	}
	for _, fn := range []func(){
		func() { c.Insert(8, Shared); c.Probe(8).SetState(Invalid) },
		func() { (&Line{}).SetState(Shared) },
		func() { New(Config{CapacityBytes: 64, Ways: 4, LineBytes: 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("misuse accepted")
				}
			}()
			fn()
		}()
	}
}

// wideLRU is a reference set-associative LRU whose 64-bit clock never
// wraps: the behaviour the 32-bit clock and its renumbering must keep.
type wideLRU struct {
	ways, sets int
	block      []uint64
	valid      []bool
	lastUse    []uint64
	clock      uint64
}

func (r *wideLRU) set(block uint64) int { return int(block/64) % r.sets * r.ways }

func (r *wideLRU) find(block uint64) int {
	for i := r.set(block); i < r.set(block)+r.ways; i++ {
		if r.valid[i] && r.block[i] == block {
			return i
		}
	}
	return -1
}

func (r *wideLRU) victim(block uint64) int {
	v := r.set(block)
	for i := v; i < r.set(block)+r.ways; i++ {
		if !r.valid[i] {
			return i
		}
		if r.lastUse[i] < r.lastUse[v] {
			v = i
		}
	}
	return v
}

// TestLRUClockWrapMatchesWideClock drives a cache's 32-bit clock across
// its wrap three times, by moving it to just below 2^32, and checks
// every victim and eviction against the 64-bit reference.
func TestLRUClockWrapMatchesWideClock(t *testing.T) {
	const ways, sets = 4, 8
	c := New(Config{CapacityBytes: ways * sets * 64, Ways: ways, LineBytes: 64})
	ref := &wideLRU{ways: ways, sets: sets, block: make([]uint64, ways*sets),
		valid: make([]bool, ways*sets), lastUse: make([]uint64, ways*sets)}
	rng := rand.New(rand.NewSource(11))
	wraps := 0
	for i := 0; i < 30000; i++ {
		if i%10000 == 0 {
			c.clock = math.MaxUint32 - uint32(rng.Intn(2000))
		}
		before := c.clock
		block := uint64(rng.Intn(6*sets)) * 64
		if want, got := ref.victim(block), c.Victim(block); got.Valid() != ref.valid[want] ||
			(got.Valid() && got.Block() != ref.block[want]) {
			t.Fatalf("op %d: victim for %#x is %+v, reference way holds %#x (valid %v)",
				i, block, *got, ref.block[want], ref.valid[want])
		}
		switch hit := ref.find(block); {
		case rng.Intn(8) == 0:
			c.Invalidate(block)
			if hit >= 0 {
				ref.valid[hit] = false
			}
		case hit >= 0:
			ref.clock++
			ref.lastUse[hit] = ref.clock
			if c.Access(block) == nil {
				t.Fatalf("op %d: %#x missed, reference hit", i, block)
			}
		default:
			ref.clock += 2 // the miss and the insert
			if c.Access(block) != nil {
				t.Fatalf("op %d: %#x hit, reference missed", i, block)
			}
			v := ref.victim(block)
			old := c.Insert(block, Shared)
			if old.Valid() != ref.valid[v] || (old.Valid() && old.Block() != ref.block[v]) {
				t.Fatalf("op %d: insert of %#x evicted %+v, reference evicts %#x (valid %v)",
					i, block, old, ref.block[v], ref.valid[v])
			}
			ref.block[v], ref.valid[v], ref.lastUse[v] = block, true, ref.clock
		}
		if c.clock < before {
			wraps++
		}
	}
	if wraps != 3 {
		t.Fatalf("clock wrapped %d times, want 3", wraps)
	}
}

// TestAccessHitMissMatchAccess drives two caches with the same
// references, one through Access and one through Probe plus
// AccessHit/AccessMiss, and checks that they choose the same victims
// and count the same hits and misses.
func TestAccessHitMissMatchAccess(t *testing.T) {
	cfg := Config{CapacityBytes: 512, Ways: 4, LineBytes: 64}
	a, b := New(cfg), New(cfg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		addr := uint64(rng.Intn(32)) * 64
		hitA := a.Access(addr) != nil
		l := b.Probe(addr)
		if l != nil {
			b.AccessHit(l)
		} else {
			b.AccessMiss()
		}
		if hitA != (l != nil) {
			t.Fatalf("ref %d: Access hit=%v, Probe hit=%v", i, hitA, l != nil)
		}
		if !hitA {
			oldA, oldB := a.Insert(addr, Shared), b.Insert(addr, Shared)
			if oldA != oldB {
				t.Fatalf("ref %d: Access evicted %+v, AccessHit/AccessMiss %+v", i, oldA, oldB)
			}
		}
	}
	ha, ma, ea := a.Stats()
	hb, mb, eb := b.Stats()
	if ha != hb || ma != mb || ea != eb {
		t.Fatalf("stats differ: Access (%d,%d,%d), AccessHit/AccessMiss (%d,%d,%d)", ha, ma, ea, hb, mb, eb)
	}
}

// TestAuxClearedByInsertAndInvalidate checks that the cache zeroes the
// owner's word whenever a way changes blocks, and hands the evicted
// value back in Insert's result.
func TestAuxClearedByInsertAndInvalidate(t *testing.T) {
	c := New(Config{CapacityBytes: 128, Ways: 1, LineBytes: 64})
	c.Insert(0x00, Shared)
	c.Probe(0x00).Aux = 7
	if old := c.Insert(0x80, Shared); old.Aux != 7 {
		t.Fatalf("evicted line's Aux = %d, want 7", old.Aux)
	}
	l := c.Probe(0x80)
	if l.Aux != 0 {
		t.Fatalf("inserted line's Aux = %d, want 0", l.Aux)
	}
	l.Aux = 9
	c.Invalidate(0x80)
	if l.Aux != 0 || l.Valid() {
		t.Fatalf("invalidated way kept %+v", *l)
	}
}

// TestHitRate checks the hit and miss counts a hit rate is taken
// from: none on an unused cache, then one of each.
func TestHitRate(t *testing.T) {
	c := New(Config{CapacityBytes: 256, Ways: 2, LineBytes: 64})
	if h, m, _ := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("unused cache counted %d hits, %d misses", h, m)
	}
	c.Access(0x40) // miss
	c.Insert(0x40, Shared)
	c.Access(0x40) // hit
	if h, m, _ := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("counted %d hits, %d misses, want 1 and 1", h, m)
	}
}

func TestIndexSkipFolding(t *testing.T) {
	// 4 sets, skip bits [12,16): addresses differing only in those bits
	// must map to the same set; the bits above must still participate.
	cfg := Config{CapacityBytes: 4 * 64 * 1, Ways: 1, LineBytes: 64, IndexSkipLo: 12, IndexSkipBits: 4}
	c := New(cfg)
	a := uint64(0x0_0000)
	b := uint64(0x0_3000) // differs only in bits 12-13
	c.Insert(a, Shared)
	if old := c.Insert(b, Shared); !old.Valid() || old.Block() != a {
		t.Fatalf("skip-field addresses should collide: evicted %+v", old)
	}
	// Bits below the skipped field still select sets normally.
	c2 := New(cfg)
	c2.Insert(0x0_0000, Shared)
	if old := c2.Insert(0x0_0040, Shared); old.Valid() {
		t.Fatalf("adjacent blocks should use different sets: evicted %+v", old)
	}
}

func TestIndexSkipInsideOffsetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("skip inside block offset accepted")
		}
	}()
	New(Config{CapacityBytes: 256, Ways: 2, LineBytes: 64, IndexSkipLo: 3, IndexSkipBits: 2})
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Errorf("state %d = %q, want %q", st, st.String(), want)
		}
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state string")
	}
}
