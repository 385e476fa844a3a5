// Package pooldbg is the runtime half of tilesimvet's pooled-object
// lifetime discipline: a build-tag-gated sanitizer for the three
// intrusive freelists left on the hot path (mesh transits, MSHR
// entries, coherence directory entries).
//
// The package itself is always compiled, but nothing references it
// unless the build carries `-tags pooldebug`: each pooled package
// declares tiny hook functions in a pair of build-tagged files, empty
// in the default build (they inline to nothing — the allocation gate
// proves zero added cost) and forwarding here under the tag. Under the
// tag every pool records each object's acquires and the site of its
// last release, and the simulator panics the moment an object is
// released twice (double-Put): the panic carries the first release's
// stack and the current one.
//
// Call sites are captured as raw program counters (runtime.Callers)
// and symbolized only when a panic needs the text, so sanitizer builds
// stay fast enough to run the full suite under -race. The registry is
// a sync.Map keyed by the object pointer itself (boxing a pointer into
// the `any` key does not allocate). Parallel sweep workers run one
// simulation each, so a record is only ever touched by the goroutine
// that owns its object and needs no lock of its own; a global mutex
// would serialize every sweep worker on every pool transition.
package pooldbg

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// site is one captured call stack, symbolized lazily.
type site struct {
	pcs [24]uintptr
	n   int
}

func capture(s *site) {
	s.n = runtime.Callers(3, s.pcs[:])
}

func (s *site) String() string {
	if s.n == 0 {
		return "(no stack recorded)"
	}
	var b strings.Builder
	frames := runtime.CallersFrames(s.pcs[:s.n])
	for {
		f, more := frames.Next()
		fmt.Fprintf(&b, "%s\n\t%s:%d\n", f.Function, f.File, f.Line)
		if !more {
			break
		}
	}
	return b.String()
}

// record is one pooled object's current lifetime: whether it sits in
// its pool, and where it was last released.
type record struct {
	released   bool
	releasedAt site
}

// objects maps each pooled object to its *record. Only Reset iterates
// it, so map order cannot leak into behavior.
var objects sync.Map

func recordFor(obj any) *record {
	if r, ok := objects.Load(obj); ok {
		return r.(*record)
	}
	r, _ := objects.LoadOrStore(obj, &record{})
	return r.(*record)
}

// Acquire records obj leaving its pool.
func Acquire(obj any) {
	recordFor(obj).released = false
}

// Release records obj returning to its pool at generation gen (0 for
// pools without one), panicking with both stack traces if the pool
// already released it (double-Put).
func Release(obj any, gen uint64) {
	r := recordFor(obj)
	if r.released {
		panic(fmt.Sprintf(
			"pooldbg: double release of %T (generation %d)\n\n--- first release ---\n%s\n--- this release ---\n%s",
			obj, gen, r.releasedAt.String(), currentStack()))
	}
	r.released = true
	capture(&r.releasedAt)
}

func currentStack() string {
	var s site
	s.n = runtime.Callers(2, s.pcs[:])
	return s.String()
}

// Reset drops all lifetime records. Tests use it to isolate scenarios;
// the simulator never calls it.
func Reset() {
	objects.Range(func(obj, _ any) bool {
		objects.Delete(obj)
		return true
	})
}
