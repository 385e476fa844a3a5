package coherence

import "math/bits"

// MaxTiles bounds the tile count the simulator builds: the scale study
// tops out at 1024 tiles.
const MaxTiles = 1024

// SharerSet is the directory's sharer bitmask: one bit per tile, in
// sharerWords(tiles) words, so a 16-tile chip keeps one word per block.
// A home allocates its entries' words a chunk at a time, in a word
// array beside the chunk's entries, and an entry's set is a view of its
// own words: the methods read and write them, and the zero value is an
// empty set of no words.
type SharerSet []uint64

// sharerWords returns the word count of a sharer set on a chip of the
// given tile count.
func sharerWords(tiles int) int { return (tiles + 63) / 64 }

// Add inserts tile t.
func (s SharerSet) Add(t int) { s[t>>6] |= 1 << uint(t&63) }

// Has reports whether tile t is in the set.
func (s SharerSet) Has(t int) bool { return s[t>>6]&(1<<uint(t&63)) != 0 }

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
