package compress

import "math/bits"

// pairTable numbers the (endpoint, endpoint, stream) pairs a codec
// keeps registers for, in order of first use, so the codec's register
// arrays hold one record per pair that has talked instead of one per
// pair the chip could have (DESIGN.md §16.5). A pair is named by its
// index in the dense cores² × streams space. The table is an open
// addressing map from index to number: Fibonacci hashing, linear
// probing, a power of two long and at most half full, doubling when it
// fills. It holds no pointer.
type pairTable struct {
	slots []pairSlot
	n     int // pairs numbered so far
}

// pairSlot is one slot of a pairTable.
type pairSlot struct {
	key uint32 // the pair's index plus one; 0 marks a free slot
	num uint32 // the pair's number
}

// initialPairs bounds the pairs a fresh table has room for: all of a
// 16-tile chip's 512 (16² × NumStreams), so the paper's configurations
// never grow, and at most 1,024 on a larger chip, doubling from there.
const initialPairs = 1024

// reset empties t, with room for min(pairs, initialPairs) pairs.
func (t *pairTable) reset(pairs int) {
	t.slots = make([]pairSlot, 2<<bits.Len(uint(min(pairs, initialPairs)-1)))
	t.n = 0
}

// room returns the pairs t can number before it next doubles; a codec
// keeps register storage for that many.
func (t *pairTable) room() int { return len(t.slots) / 2 }

// find returns the number of the pair with index i, or -1 if it has
// none.
func (t *pairTable) find(i int) int {
	s := t.slots[t.probe(uint32(i)+1)]
	if s.key == 0 {
		return -1
	}
	return int(s.num)
}

// open returns the number of the pair with index i, numbering it next
// if it has none; fresh reports that it did. Numbering may double the
// table, so a caller sizing storage by room reads it again after a
// fresh number.
func (t *pairTable) open(i int) (num int, fresh bool) {
	key := uint32(i) + 1
	slot := t.probe(key)
	if t.slots[slot].key != 0 {
		return int(t.slots[slot].num), false
	}
	if t.n == t.room() {
		old := t.slots
		t.slots = make([]pairSlot, 2*len(old))
		for _, s := range old {
			if s.key != 0 {
				t.slots[t.probe(s.key)] = s
			}
		}
		slot = t.probe(key)
	}
	t.slots[slot] = pairSlot{key: key, num: uint32(t.n)}
	t.n++
	return t.n - 1, true
}

// probe returns the slot of key: the slot holding it, or the free slot
// where it belongs.
func (t *pairTable) probe(key uint32) int {
	mask := len(t.slots) - 1
	// Fibonacci hashing: the product's top bits index the table.
	i := int(key*0x9e3779b9>>(32-bits.Len(uint(mask)))) & mask
	for t.slots[i].key != key && t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}
