// Package badsharedstate is a tilesimvet fixture for the
// parallel-safety rule: Launch's goroutine and everything it reaches is
// concurrent code, and its unsynchronized accesses to package-level and
// captured state are the findings. The locked function shows the
// mutex-body exemption, the sharedok annotations exercise the waiver
// audit.
package badsharedstate

import "sync"

// hits counts processed jobs; the worker increments it without a lock.
var hits int

// limit is written by Configure, so the worker's read of it is flagged.
var limit int

// guarded is only touched in a body that takes mu.
var guarded int

var mu sync.Mutex

// Configure runs serially; the write here just makes limit a
// module-written variable.
func Configure(n int) { limit = n }

// Launch fans one worker goroutine out over jobs.
func Launch(jobs []int) []int {
	results := make([]int, len(jobs))
	count := 0
	retries := 0
	done := make(chan struct{})
	go func() {
		for i, j := range jobs {
			if j > limit { // want: read of module-written package variable
				continue
			}
			hits++  // want: write to package-level variable
			count++ // want: write to captured variable
			//tilesim:sharedok
			retries++ // want: waiver needs a reason
			//tilesim:sharedok fixture: i is this worker's own slot
			results[i] = j // correctly waived: no finding
		}
		//tilesim:sharedok fixture: nothing shared on this line // want: stale waiver
		_ = jobs
		tally()
		locked()
		close(done)
	}()
	<-done
	_ = count
	_ = retries
	return results
}

// tally is concurrent transitively: only the goroutine calls it.
func tally() {
	hits++ // want: write to package-level variable (transitive)
}

// locked takes the mutex, so its shared writes are presumed guarded.
func locked() {
	mu.Lock()
	defer mu.Unlock()
	guarded++
}
