// Command figures regenerates the paper's evaluation figures by running
// the full simulation sweeps through the parallel sweep engine
// (internal/sweep):
//
//	Figure 2 - address-compression coverage per application
//	Figure 5 - message-class breakdown on the interconnect
//	Figure 6 - normalized execution time (top) and link ED^2P (bottom)
//	Figure 7 - normalized full-CMP ED^2P
//
// Usage:
//
//	figures                  # everything at reporting scale
//	figures -figure 6        # one figure
//	figures -resilience      # execution time / link ED^2P vs. link BER
//	figures -scale           # topology scale study (64/256/1024 tiles)
//	figures -scale -scale-tiles 64,256 -scale-topos mesh,torus,slim
//	figures -quick           # smoke-test scale (seconds)
//	figures -csv             # CSV output (tables on stdout, progress on stderr)
//	figures -jobs 8          # worker pool size (default: GOMAXPROCS)
//	figures -cache .figcache # persist results; reruns are near-instant
//	figures -refs 24000 -warmup 12000   # custom scale
//
// Results are deterministic: output is byte-identical for any -jobs
// value, and cached results are byte-identical to fresh simulations
// (same-seed determinism, DESIGN.md §8-9). Within one invocation the
// figures share an in-process result cache even without -cache, so
// configurations that repeat across figures (e.g. each application's
// baseline run, shared by Figures 5, 6 and 7) simulate once.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tilesim/internal/cmp"
	"tilesim/internal/figures"
	"tilesim/internal/obs"
	"tilesim/internal/stats"
	"tilesim/internal/sweep"
)

func main() {
	var (
		figure     = flag.Int("figure", 0, "figure number (2, 5, 6 or 7); 0 runs all")
		quick      = flag.Bool("quick", false, "smoke-test scale")
		csv        = flag.Bool("csv", false, "emit CSV")
		refs       = flag.Int("refs", 0, "override references per core")
		warmup     = flag.Int("warmup", 0, "override warmup references per core")
		seed       = flag.Int64("seed", 1, "workload seed")
		ablation   = flag.Bool("ablation", false, "run the ablation studies instead of the paper figures")
		resilience = flag.Bool("resilience", false, "run the fault-injection resilience sweep instead of the paper figures")
		scaleStudy = flag.Bool("scale", false, "run the topology scale study instead of the paper figures")
		scaleApp   = flag.String("scale-app", "FFT", "application for the scale study")
		scaleTiles = flag.String("scale-tiles", "", "comma-separated tile counts for the scale study (default 64,256,1024)")
		scaleTopos = flag.String("scale-topos", "", "comma-separated topologies for the scale study (default mesh,torus)")
		jobs       = flag.Int("jobs", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		cacheDir   = flag.String("cache", "", "result cache directory (empty = in-process cache only)")

		metricsDir = flag.String("metrics-dir", "", "write per-figure metrics sidecar JSON files into this directory")

		seriesInterval = flag.Int("series-interval", 0, "sample an epoch time series every N cycles in every cell (0 = off)")
		seriesDir      = flag.String("series-dir", "", "write per-figure series sidecar JSON files into this directory (needs -series-interval)")
		pprofDir       = flag.String("pprof-dir", "", "capture cpu.pprof and heap.pprof profiles of the run into this directory")
	)
	flag.Parse()

	scale := figures.Default()
	if *quick {
		scale = figures.Quick()
	}
	if *refs > 0 {
		scale.RefsPerCore = *refs
	}
	if *warmup > 0 {
		scale.WarmupRefs = *warmup
	}
	scale.Seed = *seed

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}

	if *seriesInterval < 0 {
		fail(fmt.Errorf("-series-interval must be non-negative"))
	}
	if *seriesDir != "" && *seriesInterval == 0 {
		fail(fmt.Errorf("-series-dir needs a positive -series-interval"))
	}
	scale.SeriesInterval = *seriesInterval

	cache := sweep.NewMemCache()
	if *cacheDir != "" {
		var err error
		if cache, err = sweep.NewDiskCache(*cacheDir); err != nil {
			fail(err)
		}
	}
	runner := &sweep.Runner{Jobs: *jobs, Cache: cache, Progress: progressPrinter()}

	if *pprofDir != "" {
		stop, err := startProfiles(*pprofDir)
		if err != nil {
			fail(err)
		}
		defer stop()
	}

	metricsSC, err := newSidecar(*metricsDir, "metrics", "run snapshots", func(r cmp.Result) (obs.Snapshot, bool) {
		return r.Metrics, len(r.Metrics) > 0
	})
	if err != nil {
		fail(err)
	}
	seriesSC, err := newSidecar(*seriesDir, "series", "run series", func(r cmp.Result) (*obs.SeriesData, bool) {
		return r.Series, r.Series != nil
	})
	if err != nil {
		fail(err)
	}
	if metricsSC != nil || seriesSC != nil {
		runner.OnResult = func(jr sweep.JobResult) {
			metricsSC.collect(jr)
			seriesSC.collect(jr)
		}
	}
	// flush writes both sidecar families for the figure just completed;
	// nil receivers are inert.
	flush := func(name string) error {
		if err := metricsSC.flush(name); err != nil {
			return err
		}
		return seriesSC.flush(name)
	}

	emit := func(title string, t *stats.Table) {
		if *csv {
			fmt.Print(t.CSV())
			return
		}
		fmt.Printf("%s\n\n%s\n", title, t.String())
	}
	want := func(n int) bool { return *figure == 0 || *figure == n }
	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	trailer := func(what string, start time.Time) {
		if *csv {
			return
		}
		st := cache.Stats()
		fmt.Printf("(%s completed in %.0fs at refs=%d warmup=%d seed=%d; jobs=%d, cache: %d hits / %d misses, %d from disk)\n",
			what, time.Since(start).Seconds(), scale.RefsPerCore, scale.WarmupRefs, scale.Seed,
			workers, st.Hits, st.Misses, st.DiskHits)
	}

	start := time.Now()
	if *scaleStudy {
		tiles, err := intList(*scaleTiles)
		if err != nil {
			fail(err)
		}
		_, t, err := figures.ScaleStudy(runner, scale, *scaleApp, tiles, strList(*scaleTopos))
		if err != nil {
			fail(err)
		}
		emit(fmt.Sprintf("Scale study: %s compression and wire-plane ablations vs. topology and tile count (per-cell baselines)", *scaleApp), t)
		if err := flush("scale"); err != nil {
			fail(err)
		}
		trailer("scale study", start)
		return
	}
	if *ablation {
		_, t, err := figures.AblationWiring(runner, scale, []string{"MP3D", "Unstructured", "FFT", "Water-nsq"})
		if err != nil {
			fail(err)
		}
		emit("Ablation A: link layouts (paper VL+B vs Cheng-style L+PW+ReplyPartitioning vs combined)", t)
		_, t, err = figures.AblationDBRCSize(runner, scale, "FFT")
		if err != nil {
			fail(err)
		}
		emit("Ablation B: DBRC size sweep on FFT (incl. untabulated 8/32-entry points)", t)
		_, t, err = figures.AblationSensitivity(runner, scale, "MP3D")
		if err != nil {
			fail(err)
		}
		emit("Ablation C: sensitivity of the MP3D win to router depth and wire speed", t)
		if err := flush("ablations"); err != nil {
			fail(err)
		}
		trailer("ablations", start)
		return
	}
	if *resilience {
		for _, app := range []string{"FFT", "MP3D"} {
			_, t, err := figures.Resilience(runner, scale, app)
			if err != nil {
				fail(err)
			}
			emit(fmt.Sprintf("Resilience: %s execution time and link ED^2P vs. link BER (DBRC-4/2B over VL+B, retries correct every error)", app), t)
		}
		if err := flush("resilience"); err != nil {
			fail(err)
		}
		trailer("resilience sweep", start)
		return
	}
	if want(2) {
		_, t, err := figures.Figure2(runner, scale)
		if err != nil {
			fail(err)
		}
		emit("Figure 2: address compression coverage (fraction of compressible messages compressed)", t)
		if err := flush("figure2"); err != nil {
			fail(err)
		}
	}
	if want(5) {
		_, t, err := figures.Figure5(runner, scale)
		if err != nil {
			fail(err)
		}
		emit("Figure 5: breakdown of messages on the interconnect (baseline)", t)
		if err := flush("figure5"); err != nil {
			fail(err)
		}
	}
	if want(6) || want(7) {
		results, err := figures.Figure67(runner, scale)
		if err != nil {
			fail(err)
		}
		if err := flush("figure6-7"); err != nil {
			fail(err)
		}
		if want(6) {
			emit("Figure 6 (top): normalized execution time", figures.Figure6TopTable(results))
			emit("Figure 6 (bottom): normalized link ED^2P", figures.Figure6BottomTable(results))
		}
		if want(7) {
			emit("Figure 7: normalized full-CMP ED^2P (interconnect share 36%)", figures.Figure7Table(results))
		}
	}
	trailer("sweep", start)
}

// intList parses a comma-separated integer flag; empty means "use the
// study's default axis" and returns nil.
func intList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad tile count %q: %w", f, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// strList parses a comma-separated string flag; empty returns nil.
func strList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(f))
	}
	return out
}

// sidecar harvests one per-run artifact T from the sweep
// (Runner.OnResult) and writes one JSON file per figure,
// <dir>/<name>.<ext>.json: an object mapping each run's canonical
// configuration (cmp.RunConfig.Canonical) to its artifact. A nil
// *sidecar is inert, so call sites need no guards.
type sidecar[T any] struct {
	dir, ext, what string
	get            func(cmp.Result) (T, bool)
	runs           map[string]T
}

// newSidecar returns a sidecar writing into dir, creating it, or nil
// when dir is empty. get extracts a run's artifact and reports whether
// it has one; what names the entries in the progress line.
func newSidecar[T any](dir, ext, what string, get func(cmp.Result) (T, bool)) (*sidecar[T], error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &sidecar[T]{dir: dir, ext: ext, what: what, get: get, runs: make(map[string]T)}, nil
}

// collect is a Runner.OnResult hook. Keys are canonical encodings, so
// distinct configurations never share an entry; a configuration that
// repeats across figures overwrites with an identical artifact
// (results are deterministic).
func (s *sidecar[T]) collect(jr sweep.JobResult) {
	if s == nil || jr.Err != nil {
		return
	}
	v, ok := s.get(jr.Result)
	if !ok {
		return
	}
	key, err := jr.Config.Canonical()
	if err != nil {
		return // only generator-driven runs lack one, and no figure sweep makes them
	}
	s.runs[key] = v
}

// flush writes the artifacts collected since the previous flush to
// <dir>/<name>.<ext>.json and resets the collection. encoding/json
// sorts map keys, so the sidecar is deterministic for a fixed sweep.
func (s *sidecar[T]) flush(name string) error {
	if s == nil || len(s.runs) == 0 {
		return nil
	}
	data, err := json.MarshalIndent(s.runs, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.dir, name+"."+s.ext+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "figures: wrote %d %s to %s\n", len(s.runs), s.what, path)
	s.runs = make(map[string]T)
	return nil
}

// startProfiles begins a CPU profile in dir and returns a stop
// function that finalizes it and captures a heap profile. Profiles are
// host-side observability only: they never touch simulation state.
func startProfiles(dir string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cf, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		cf.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		cf.Close()
		hf, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures: heap profile:", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(hf); err == nil {
			err = hf.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures: heap profile:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "figures: wrote cpu.pprof and heap.pprof to %s\n", dir)
	}, nil
}

// progressPrinter returns a sweep progress callback that rewrites one
// stderr status line per batch — jobs done/total and an ETA projected
// from the elapsed wall clock — and terminates it when the batch
// completes. The callback is invoked serialized by the runner.
func progressPrinter() func(done, total int) {
	var start time.Time
	return func(done, total int) {
		if start.IsZero() {
			start = time.Now()
		}
		elapsed := time.Since(start)
		eta := "?"
		if done > 0 {
			// Project in float seconds: dividing the Duration first
			// (elapsed/done*(total-done)) truncates to integer
			// nanoseconds per job and zeroes the ETA for fast jobs.
			etaSec := elapsed.Seconds() / float64(done) * float64(total-done)
			eta = time.Duration(etaSec * float64(time.Second)).Round(time.Second).String()
		}
		fmt.Fprintf(os.Stderr, "\rsweep: %d/%d jobs done, eta %-8s", done, total, eta)
		if done == total {
			fmt.Fprintf(os.Stderr, "\n")
			start = time.Time{}
		}
	}
}
