// Package badglobal is a tilesimvet fixture: simulator code that writes
// package-level variables. Such state outlives a run, so it changes the
// next run's result in a sweep, and it races between the sweep's
// workers.
package badglobal

import "time"

// runs counts simulations across runs.
var runs int

// last remembers the previous run's cycle count.
var last uint64

// hist is a histogram every run shares.
var hist [8]int

// stats groups counters in one package-level struct.
var stats struct {
	Hits, Misses int
}

// table is filled in init instead of in its declaration.
var table map[string]int

func init() {
	table = map[string]int{"a": 1} // want: determinism finding here
}

// Record keeps one run's outcome in package-level state.
func Record(cycles uint64, bucket int) {
	runs++                // want: determinism finding here
	last = cycles         // want: determinism finding here
	hist[bucket] = runs   // want: determinism finding here
	stats.Hits++          // want: determinism finding here
	time.Local = time.UTC // want: determinism finding here
}
