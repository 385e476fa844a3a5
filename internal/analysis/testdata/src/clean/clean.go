// Package clean is the tilesimvet negative control: it exercises every
// rule's escape hatch — an annotated order-independent map range with
// sorted-key float summation, a properly prefixed panic, an exhaustive
// switch with a panicking default, unit arithmetic that stays within
// one unit, a stable sort plus a //tilesim:totalorder unstable sort,
// randomness threaded through a seeded *rand.Rand, package-level state
// of sync and sync/atomic types, a table built in its declaration, and
// a local that shadows a package-level variable — and must produce
// zero findings.
package clean

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Widgets is a unit-typed quantity.
//
//tilesim:unit widgets
type Widgets float64

// Mode is a small enum with a sentinel that exhaustiveness must ignore.
type Mode int

// The modes.
const (
	Off Mode = iota
	On

	numModes
)

// Describe covers every mode and panics (prefixed) on corruption.
func Describe(m Mode) string {
	switch m {
	case Off:
		return "off"
	case On:
		return "on"
	default:
		panic(fmt.Sprintf("clean: unknown mode %d", int(m)))
	}
}

// Total sums map values in sorted-key order: collecting the keys is
// order-independent (annotated), and the float accumulation itself runs
// over the deterministic sorted slice.
func Total(counts map[string]Widgets) Widgets {
	keys := make([]string, 0, len(counts))
	for k := range counts { //tilesim:ordered — keys are sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var t Widgets
	for _, k := range keys {
		t += counts[k]
	}
	return t
}

// Scale multiplies within one unit and by dimensionless constants,
// which the units analyzer must accept.
func Scale(w Widgets) float64 {
	return 2 * float64(w) / float64(numModes)
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
