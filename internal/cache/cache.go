// Package cache implements the set-associative cache arrays of the tiled
// CMP (32 KB 4-way L1s and 256 KB 4-way L2 slices, 64-byte lines) with
// true-LRU replacement, plus the L1 miss-status holding registers.
//
// The arrays track tags and coherence state only; tilesim is a timing and
// traffic simulator, so line contents never exist (message payloads are
// sized, not valued).
package cache

import (
	"fmt"
	"math"
	"math/bits"

	"tilesim/internal/stats"
)

// State is the MESI state of a cached line.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Line is one cache line's bookkeeping: 16 bytes, so a 4-way set is
// one 64-byte host cache line (DESIGN.md §16.9).
type Line struct {
	// tag is the block address (addr &^ (lineBytes-1)) with the MESI
	// state in its low two bits, which a block address of a line of 4
	// or more bytes leaves clear. It is 0 when the line is invalid.
	tag uint64
	// lastUse is the LRU stamp; renumber keeps it within 32 bits.
	lastUse uint32
	// Aux is a word the cache's owner controls: the cache never reads
	// it, and Insert and Invalidate zero it. A home L2 slice keeps the
	// block's directory-entry reference here.
	Aux uint32
}

// stateMask selects the MESI state in a line's tag.
const stateMask = 3

// Valid reports whether the line holds a block.
func (l *Line) Valid() bool { return l.tag != 0 }

// Block returns the block address the line holds.
func (l *Line) Block() uint64 { return l.tag &^ stateMask }

// State returns the line's MESI state (Invalid for a free way).
func (l *Line) State() State { return State(l.tag & stateMask) }

// SetState changes a valid line's state. Only Invalidate drops a line.
func (l *Line) SetState(st State) {
	if l.tag == 0 || st == Invalid || st > Modified {
		panic("cache: SetState takes a valid line to a valid state")
	}
	l.tag = l.tag&^stateMask | uint64(st)
}

// Config sizes a cache.
type Config struct {
	CapacityBytes int
	Ways          int
	LineBytes     int
	// IndexSkipLo/IndexSkipBits remove an address bit-field from the set
	// index computation. A NUCA L2 slice skips the home-interleave bits:
	// they are constant within one slice, and indexing with them would
	// leave most sets unreachable. IndexSkipLo is the absolute bit
	// position of the field (must be >= log2(LineBytes)); IndexSkipBits
	// its width (0 disables).
	IndexSkipLo, IndexSkipBits int
}

// L1Config returns the paper's L1 data cache geometry.
func L1Config() Config { return Config{CapacityBytes: 32 * 1024, Ways: 4, LineBytes: 64} }

// L2SliceConfig returns the paper's per-tile L2 slice geometry.
func L2SliceConfig() Config { return Config{CapacityBytes: 256 * 1024, Ways: 4, LineBytes: 64} }

// Cache is a set-associative array with true LRU.
type Cache struct {
	cfg     Config
	sets    int
	shift   uint // log2(lineBytes)
	setMask uint64
	lines   []Line // sets*ways, set-major
	clock   uint32
	hits    stats.Counter
	misses  stats.Counter
	evicts  stats.Counter
}

// New builds a cache; capacity must divide evenly into sets of ways
// power-of-two lines.
func New(cfg Config) *Cache { return &NewSlab(cfg, 1)[0] }

// NewSlab builds n caches of one geometry over a few allocations of
// lines: the slab is cut into chunks of at most slabChunkLines lines
// (or one cache, if larger), each holding whole caches, and cache i
// owns its run of a chunk through a slice whose capacity ends with the
// run, so no cache reaches another's lines. A chip's L1s, or its L2
// slices, then take a few allocations, not one per tile.
func NewSlab(cfg Config, n int) []Cache {
	sets := checkGeometry(cfg)
	per := sets * cfg.Ways
	perChunk := max(1, slabChunkLines/per)
	cs := make([]Cache, n)
	var chunk []Line
	for i := range cs {
		if len(chunk) == 0 {
			chunk = make([]Line, min(perChunk, n-i)*per)
		}
		cs[i] = Cache{
			cfg:     cfg,
			sets:    sets,
			shift:   uint(bits.TrailingZeros(uint(cfg.LineBytes))),
			setMask: uint64(sets - 1),
			lines:   chunk[:per:per],
		}
		chunk = chunk[per:]
	}
	return cs
}

// slabChunkLines bounds one allocation of a slab to 4 MiB of 16-byte
// lines (DESIGN.md §16.9). The runtime zeroes a large allocation whole
// when any of its pages was freed before, which touches every page:
// one 64 MB slab at 1024 tiles could double a run's resident memory.
// A chunk bounds what one such reuse touches.
const slabChunkLines = 1 << 18

// checkGeometry panics unless cfg describes a buildable cache, and
// returns its set count.
func checkGeometry(cfg Config) int {
	if cfg.LineBytes <= 0 || bits.OnesCount(uint(cfg.LineBytes)) != 1 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", cfg.LineBytes))
	}
	if cfg.LineBytes <= stateMask {
		panic(fmt.Sprintf("cache: line size %d leaves no tag bits for the state", cfg.LineBytes))
	}
	if cfg.Ways <= 0 || cfg.CapacityBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	linesTotal := cfg.CapacityBytes / cfg.LineBytes
	if linesTotal%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by %d ways", linesTotal, cfg.Ways))
	}
	sets := linesTotal / cfg.Ways
	if bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("cache: %d sets not a power of two", sets))
	}
	if cfg.IndexSkipBits > 0 && cfg.IndexSkipLo < bits.TrailingZeros(uint(cfg.LineBytes)) {
		panic(fmt.Sprintf("cache: index skip at bit %d is inside the %d-byte block offset", cfg.IndexSkipLo, cfg.LineBytes))
	}
	return sets
}

// BlockOf returns the block address containing addr.
func (c *Cache) BlockOf(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }

func (c *Cache) setOf(block uint64) []Line {
	b := block >> c.shift // block number
	if c.cfg.IndexSkipBits > 0 {
		// Fold out the skipped bit-field: keep the bits below it,
		// concatenate the bits above it.
		lowBits := uint(c.cfg.IndexSkipLo) - c.shift
		low := b & (1<<lowBits - 1)
		high := b >> (lowBits + uint(c.cfg.IndexSkipBits))
		b = low | high<<lowBits
	}
	set := int(b & c.setMask)
	return c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
}

// Probe returns the line holding addr's block without touching LRU, or
// nil.
func (c *Cache) Probe(addr uint64) *Line {
	block := c.BlockOf(addr)
	set := c.setOf(block)
	for i := range set {
		// One word per way: the tag differs from the block only in
		// its state bits, and those are nonzero.
		if (set[i].tag^block)-1 < stateMask {
			return &set[i]
		}
	}
	return nil
}

// Access looks up addr, updating LRU and hit/miss statistics. It returns
// the line on a hit, nil on a miss.
func (c *Cache) Access(addr uint64) *Line {
	l := c.Probe(addr)
	if l != nil {
		c.AccessHit(l)
	} else {
		c.AccessMiss()
	}
	return l
}

// AccessHit records an Access hit on l, a line the caller already
// holds from Probe: the LRU clock, l's recency and the hit count move
// exactly as Access would move them.
func (c *Cache) AccessHit(l *Line) {
	l.lastUse = c.tick()
	c.hits.Inc()
}

// AccessMiss records an Access miss for a block the caller already
// probed: the LRU clock and the miss count move exactly as Access
// would move them.
func (c *Cache) AccessMiss() {
	c.tick()
	c.misses.Inc()
}

// tick advances the LRU clock and returns its new value, renumbering
// the stamps first when the clock would wrap.
func (c *Cache) tick() uint32 {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
	c.clock++
	return c.clock
}

// renumber restarts the LRU clock before it wraps: each set's valid
// lines take stamps 1..k in recency order and the clock restarts at
// the way count, above every stamp. Victim compares stamps only within
// a set, so every later victim is the one a clock that never wraps
// would choose. A cache reaches this after 2^32 accesses.
func (c *Cache) renumber() {
	ways := c.cfg.Ways
	for s := 0; s < len(c.lines); s += ways {
		set := c.lines[s : s+ways]
		// Stamps are distinct and positive, so once the r oldest lines
		// hold 1..r, every other valid line's stamp is above r: the
		// next oldest is the least stamp above r.
		for r := uint32(0); ; r++ {
			next := -1
			for i := range set {
				if set[i].Valid() && set[i].lastUse > r && (next < 0 || set[i].lastUse < set[next].lastUse) {
					next = i
				}
			}
			if next < 0 {
				break
			}
			set[next].lastUse = r + 1
		}
	}
	c.clock = uint32(ways)
}

// Victim returns the line that would be evicted to make room for addr's
// block: an invalid way if any, else the LRU line. It never returns nil.
func (c *Cache) Victim(addr uint64) *Line {
	set := c.setOf(c.BlockOf(addr))
	victim := &set[0]
	for i := range set {
		if !set[i].Valid() {
			return &set[i]
		}
		if set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	return victim
}

// VictimWhere returns the way to evict for addr's block when the caller
// may not evict every way: an invalid way if any, else the
// least-recently-used way that ok accepts, or nil when ok accepts none.
// ok sees only valid ways, and only the LRU way when it accepts that.
func (c *Cache) VictimWhere(addr uint64, ok func(*Line) bool) *Line {
	v := c.Victim(addr)
	if !v.Valid() || ok(v) {
		return v
	}
	var best *Line
	set := c.setOf(c.BlockOf(addr))
	for i := range set {
		if l := &set[i]; l != v && (best == nil || l.lastUse < best.lastUse) && ok(l) {
			best = l
		}
	}
	return best
}

// Insert places block into the cache in the given state, returning the
// evicted line's previous contents (Valid()==false if the way was free).
// Inserting a block that is already present panics: callers must use
// the existing line.
func (c *Cache) Insert(addr uint64, st State) Line {
	block := c.BlockOf(addr)
	if c.Probe(block) != nil {
		panic(fmt.Sprintf("cache: double insert of block %#x", block))
	}
	if st == Invalid || st > Modified {
		panic(fmt.Sprintf("cache: inserting a line in state %v", st))
	}
	clock := c.tick()
	v := c.Victim(block)
	old := *v
	if old.Valid() {
		c.evicts.Inc()
	}
	*v = Line{tag: block | uint64(st), lastUse: clock}
	return old
}

// Invalidate removes addr's block, returning its previous state
// (Invalid if absent).
func (c *Cache) Invalidate(addr uint64) State {
	if l := c.Probe(addr); l != nil {
		st := l.State()
		*l = Line{}
		return st
	}
	return Invalid
}

// Stats returns (hits, misses, evictions).
func (c *Cache) Stats() (hits, misses, evicts uint64) {
	return c.hits.Value(), c.misses.Value(), c.evicts.Value()
}
