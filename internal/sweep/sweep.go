// Package sweep is the parallel experiment engine behind cmd/figures
// and internal/figures (DESIGN.md §9).
//
// The paper's evaluation is a grid of independent simulations
// (application x compression scheme x wiring). Each cmp.Run builds a
// private kernel, mesh and protocol and — by the determinism guarantees
// tilesimvet enforces (DESIGN.md §8) — returns a bit-identical Result
// for the same RunConfig, so the grid is embarrassingly parallel and
// safely memoizable. A Runner fans a job slice out over a bounded
// worker pool and returns results in submission order regardless of
// completion order; a failed job is captured in its slot instead of
// aborting the batch. A content-addressed Cache (in-process map,
// optionally backed by a directory of JSON entries) makes duplicate
// configurations — within a batch, across figures, and across process
// invocations — simulate exactly once.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"tilesim/internal/cmp"
)

// JobResult pairs one submitted configuration with its outcome. A
// batch's JobResults line up index-for-index with the submitted slice.
type JobResult struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Config is the submitted configuration, verbatim.
	Config cmp.RunConfig
	// Result is valid when Err is nil.
	Result cmp.Result
	// Err is this job's failure; other jobs run to completion anyway.
	Err error
	// Cached reports that Result came from the cache or from an
	// identical job in the same batch rather than a fresh simulation.
	Cached bool
}

// Runner executes batches of independent simulations. The zero value
// is ready to use: one worker per GOMAXPROCS, no cache, no progress.
type Runner struct {
	// Jobs bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// Cache, when non-nil, memoizes results by content-addressed Key.
	Cache *Cache
	// Progress, when non-nil, is called after every completed job with
	// the batch totals. Calls are serialized and done is monotone, so
	// the callback may safely write a progress line. It must not call
	// back into the Runner.
	Progress func(done, total int)
	// OnResult, when non-nil, is called once per job after the whole
	// batch completes, in submission order, cached and duplicate jobs
	// included. Use it to harvest per-run observability (each Result
	// carries its metrics snapshot) without re-walking the batch. It
	// must not call back into the Runner.
	OnResult func(JobResult)

	// runFn is the simulation entry point; tests substitute it to
	// count or fake simulate calls. nil means cmp.Run.
	runFn func(cmp.RunConfig) (cmp.Result, error)
}

// Run executes every configuration and returns one JobResult per
// config, in submission order. Duplicate configurations (equal cache
// Key) simulate once per batch: later occurrences copy the first
// occurrence's slot and are marked Cached. Configurations with no
// canonical encoding (custom Generator) always simulate.
func (r *Runner) Run(cfgs []cmp.RunConfig) []JobResult {
	out := make([]JobResult, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = JobResult{Index: i, Config: cfg}
	}
	workers := r.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	run := r.runFn
	if run == nil {
		run = cmp.Run
	}

	// Group duplicates: only the first occurrence of each key
	// simulates; the rest copy its slot after the pool drains.
	keys := make([]string, len(cfgs))
	primary := make([]int, len(cfgs))
	dups := make([]int, len(cfgs))
	firstOf := make(map[string]int, len(cfgs))
	for i, cfg := range cfgs {
		primary[i] = i
		k, err := Key(cfg)
		if err != nil {
			continue
		}
		keys[i] = k
		if j, ok := firstOf[k]; ok {
			primary[i] = j
			dups[j]++
		} else {
			firstOf[k] = i
		}
	}

	var mu sync.Mutex
	done := 0
	report := func(n int) {
		if r.Progress == nil {
			return
		}
		mu.Lock()
		done += n
		r.Progress(done, len(cfgs))
		mu.Unlock()
	}

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if r.Cache != nil && keys[i] != "" {
					if res, ok := r.Cache.Get(keys[i]); ok {
						//tilesim:sharedok disjoint per-job slots; each index is owned by exactly one worker, joined by wg.Wait
						out[i].Result, out[i].Cached = res, true
						report(1 + dups[i])
						continue
					}
				}
				res, err := run(cfgs[i])
				//tilesim:sharedok disjoint per-job slots; each index is owned by exactly one worker, joined by wg.Wait
				out[i].Result, out[i].Err = res, err
				if err == nil && r.Cache != nil && keys[i] != "" {
					r.Cache.Put(keys[i], res)
				}
				report(1 + dups[i])
			}
		}()
	}
	for i := range cfgs {
		if primary[i] == i {
			work <- i
		}
	}
	close(work)
	wg.Wait()

	for i := range cfgs {
		if p := primary[i]; p != i {
			out[i].Result, out[i].Err, out[i].Cached = out[p].Result, out[p].Err, true
		}
	}
	if r.OnResult != nil {
		for i := range out {
			r.OnResult(out[i])
		}
	}
	return out
}

// Err merges a batch's failures into one error (nil when every job
// succeeded). One failed configuration never aborts a sweep; callers
// collect and report all failures here.
func Err(results []JobResult) error {
	var errs []error
	for _, jr := range results {
		if jr.Err != nil {
			errs = append(errs, fmt.Errorf("job %d %s/%s: %w",
				jr.Index, jr.Config.App, jr.Config.Label(), jr.Err))
		}
	}
	return errors.Join(errs...)
}

// Results unwraps a fully successful batch into plain results, or
// returns the combined failure.
func Results(jrs []JobResult) ([]cmp.Result, error) {
	if err := Err(jrs); err != nil {
		return nil, err
	}
	rs := make([]cmp.Result, len(jrs))
	for i, jr := range jrs {
		rs[i] = jr.Result
	}
	return rs, nil
}
