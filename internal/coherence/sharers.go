package coherence

import "math/bits"

// MaxTiles bounds the tile count the simulator builds: the scale study
// tops out at 1024 tiles.
const MaxTiles = 1024

// SharerSet is the directory's sharer bitmask: one bit per tile, in
// sharerWords(tiles) words, so a 16-tile chip keeps one word per block.
// A home's entries keep their sets in their chunk's word array, and an
// entry's set is a view of its own words: the methods read and write
// them. A chunk gets its words when one of its entries receives its
// first sharer; until then each of its entries' sets is the zero value,
// a set of no words that reads as empty and that Add must not be
// called on.
type SharerSet []uint64

// sharerWords returns the word count of a sharer set on a chip of the
// given tile count.
func sharerWords(tiles int) int { return (tiles + 63) / 64 }

// Add inserts tile t.
func (s SharerSet) Add(t int) { s[t>>6] |= 1 << uint(t&63) }

// Has reports whether tile t is in the set; a tile past the set's words
// is not.
func (s SharerSet) Has(t int) bool {
	i := t >> 6
	return i < len(s) && s[i]&(1<<uint(t&63)) != 0
}

// Empty reports whether no tile is in the set.
func (s SharerSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of tiles in the set.
func (s SharerSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the smallest tile in the set that is at least t, or -1,
// so `for t := s.Next(0); t >= 0; t = s.Next(t + 1)` visits the set in
// ascending tile order.
func (s SharerSet) Next(t int) int {
	i := t >> 6
	if i >= len(s) {
		return -1
	}
	w := s[i] &^ (1<<uint(t&63) - 1)
	for w == 0 {
		i++
		if i == len(s) {
			return -1
		}
		w = s[i]
	}
	return i<<6 + bits.TrailingZeros64(w)
}

// Clear empties the set.
func (s SharerSet) Clear() { clear(s) }
