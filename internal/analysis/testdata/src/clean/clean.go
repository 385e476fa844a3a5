// Package clean is the tilesimvet negative control: it exercises every
// rule's escape hatch — a map read through a slice of its keys, an
// exhaustive switch that leaves out only a sentinel, a partial switch
// with a default, a stable sort plus a //tilesim:totalorder unstable
// sort, randomness threaded through a seeded *rand.Rand, package-level
// state of sync and sync/atomic types, a table built in its
// declaration, and a local that shadows a package-level variable — and
// must produce zero findings.
package clean

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Mode is a small enum with a sentinel that exhaustiveness must ignore.
type Mode int

// The modes.
const (
	Off Mode = iota
	On

	numModes
)

// Describe covers every mode but the numModes sentinel.
func Describe(m Mode) string {
	switch m {
	case Off:
		return "off"
	case On:
		return "on"
	}
	return "?"
}

// IsOn names one mode and leaves the rest to its default clause.
func IsOn(m Mode) bool {
	switch m {
	case On:
		return true
	default:
		return false
	}
}

// Total sums the counts of the given keys: indexing the map in the
// order of a key slice is the alternative to ranging over it.
func Total(counts map[string]float64, keys []string) float64 {
	var t float64
	for _, k := range keys {
		t += counts[k]
	}
	return t
}

// SortStable uses the stable sort, the default sanctioned spelling.
func SortStable(xs []int) {
	sort.SliceStable(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// SortTotal keeps the unstable sort under the total-order annotation.
func SortTotal(xs []int) {
	//tilesim:totalorder — distinct ints admit no ties
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// Jitter draws from an explicitly seeded generator: methods on a
// *rand.Rand are the sanctioned alternative to the global source.
func Jitter(rng *rand.Rand) float64 {
	return rng.Float64()
}

// calls counts Count calls across goroutines: an atomic type
// synchronizes itself.
var calls atomic.Int64

// Count records one call.
func Count() int64 {
	return calls.Add(1)
}

// bufs recycles scratch buffers. Setting its New in init is a write
// through a sync type, which the package-variable check exempts.
var bufs sync.Pool

func init() {
	bufs.New = func() any { return new([64]byte) }
}

// modeNames is built in its declaration and only read afterwards.
var modeNames = [...]string{Off: "off", On: "on"}

// Name reads the declaration-built table.
func Name(m Mode) string {
	return modeNames[m]
}

// limit is a package-level bound that no function writes.
var limit = 8

// Clamp writes only its own limit, which shadows the package-level one
// it starts from.
func Clamp(x int) int {
	limit := limit
	if x < limit {
		limit = x
	}
	return limit
}
