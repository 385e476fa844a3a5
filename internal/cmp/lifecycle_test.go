package cmp

import (
	"runtime"
	"strings"
	"testing"

	"tilesim/internal/fault"
	"tilesim/internal/workload"
)

// settled yields until the goroutine count falls to want, a bounded
// number of times, and returns the last count: a goroutine that has
// signalled its exit still counts until the runtime reaps it. For the
// same reason a count can fall below one taken earlier, when an earlier
// test's goroutine was still exiting.
func settled(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunLeavesNoGoroutine checks the prefetch producer's lifecycle:
// building a system starts no goroutine, the first Next in Run starts
// the producer, and it has exited when Run returns, on success and on
// both ways a run can fail.
func TestRunLeavesNoGoroutine(t *testing.T) {
	stuck := baselineCfg("FFT", 2000)
	cases := []struct {
		name    string
		cfg     RunConfig
		breaker func(*System) // makes the run fail
		want    string        // error substring; "" for success
	}{
		{name: "success", cfg: baselineCfg("FFT", 400)},
		{
			// As cli-smoke runs it: the first message to exhaust its
			// two retries ends the run.
			name: "retry budget",
			cfg: func() RunConfig {
				c := faultCfg("FFT", 2000, fault.Config{BER: 0.05, RetryLimit: 2})
				c.WarmupRefs = 500
				return c
			}(),
			want: "retry budget",
		},
		{
			// Core 3 never steps, so the others wait at FFT's first
			// barrier until the event queue drains, with streams longer
			// than the rings: the producer is still running.
			name:    "did not finish",
			cfg:     stuck,
			breaker: func(s *System) { s.cores[3].stepFn = func() {} },
			want:    "did not finish",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			sys, err := NewSystem(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("NewSystem: %d goroutines, %d before", n, before)
			}
			if sys.prefetch == nil {
				t.Fatal("a named application is not served through the prefetcher")
			}
			if c.breaker != nil {
				c.breaker(sys)
			}
			_, err = sys.Run()
			switch {
			case c.want == "" && err != nil:
				t.Fatal(err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
			if n := settled(before); n > before {
				t.Errorf("after Run: %d goroutines, %d before NewSystem", n, before)
			}
		})
	}
}

// TestCallerGeneratorIsUsedAsGiven pins which generators go through the
// prefetcher: only the App NewSystem builds. A caller's generator, such
// as a replayed trace or bench's traced wrapper, is called directly.
func TestCallerGeneratorIsUsedAsGiven(t *testing.T) {
	cfg := baselineCfg("FFT", 100)
	app, err := workload.NewNamedApp("FFT", 16, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Generator = app
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.prefetch != nil || sys.cores[0].gen != workload.Generator(app) {
		t.Fatal("a caller's Generator was wrapped")
	}
}
