// Package badtaint is a tilesimvet fixture for the transitive
// determinism pass: wall-clock time and global randomness leak into
// exported entry points through a helper chain and a stored function
// value. The direct references (the stamp initializer, jitter's body)
// are the per-callsite check's findings; the transitive pass
// contributes the *callers* that reach them, each with its call chain.
package badtaint

import (
	"math/rand"
	"time"
)

// stamp is a stored clock: the function value hides the wall-clock
// read from any per-callsite scan of its callers.
var stamp = time.Now // want: determinism finding here

// helper invokes the stored clock.
func helper() int64 { // want: determinism finding here
	return stamp().UnixNano()
}

// Record is two hops from the wall clock.
func Record() int64 { // want: determinism finding here
	return helper()
}

// jitter draws from the global source directly (the per-callsite
// check's finding, not the transitive pass's).
func jitter() float64 {
	return rand.Float64() // want: determinism finding here
}

// Delay reaches the global source through jitter.
func Delay() float64 { // want: determinism finding here
	return 4 * jitter()
}

// Pure touches neither clock nor randomness and must stay unflagged.
func Pure(x int) int {
	return x * x
}
