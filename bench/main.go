// Command bench is tilesim's host-performance benchmark. It simulates
// four fixed workloads to completion, each repetition in a fresh child
// process, and reports what a user of the simulator waits for and pays:
// simulated references per host second, wall and setup time, and peak
// memory. Host times are scaled by a reference program timed around
// each simulation (hostref.go), which cancels the shared host's drift.
// Every repetition's simulated result is checked against the digest
// pinned.json records, so a speed-up that changes results fails.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bench -compare BASE.json HEAD.json
//	bench -ab BASE_BIN HEAD_BIN [-pairs N] [-workload NAME] [-seed N]
//
// -trace 1 runs the traced pass instead: one untraced and one traced
// repetition per workload, plus drivers that replay the traced run's
// messages into each layer alone, and prints the per-layer metrics.
// The last stdout line is always one JSON object with the keys correct,
// attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"
)

// minReps is the fewest repetitions a workload run makes, whatever
// -seconds allows: median, min and max need three.
const minReps = 3

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes one invocation and returns the exit code: 0 when every
// operation succeeded, 1 when one failed or a comparison found a
// regression.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", pinnedSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "measure each workload for about this long (at least 3 repetitions)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", "", "write the repetitions to this result file, for -compare")
	compare := fs.String("compare", "", "compare result file `BASE` with the result file given after it")
	ab := fs.String("ab", "", "interleave benchmark binary `BASE` with the binary given after it")
	pairs := fs.Int("pairs", 10, "repetition pairs per workload for -ab")
	child := fs.String("child", "", "internal: run one repetition of this workload and print it")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0, nil
	} else if err != nil {
		return 0, err
	}
	if *trace != 0 && *trace != 1 {
		return 0, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *child != "" {
		return 0, childMain(*child, *seed, *trace == 1)
	}
	if *compare != "" || *ab != "" {
		// The second operand sits between the flags: take it and parse
		// whatever follows it.
		rest := fs.Args()
		if len(rest) == 0 {
			return 0, fmt.Errorf("-compare and -ab take two operands")
		}
		second := rest[0]
		if err := fs.Parse(rest[1:]); err != nil {
			return 0, err
		}
		if *compare != "" {
			return compareFiles(stdout, *compare, second)
		}
		ws, err := selectWorkloads(*name)
		if err != nil {
			return 0, err
		}
		return runAB(stdout, *ab, second, *pairs, ws, *seed)
	}
	if fs.NArg() > 0 {
		return 0, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	ws, err := selectWorkloads(*name)
	if err != nil {
		return 0, err
	}
	pinned, err := loadPinned()
	if err != nil {
		return 0, err
	}
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var runs []workloadRun
	for _, w := range ws {
		var wr workloadRun
		if *trace == 1 {
			wr = traceWorkload(self, w, *seed)
		} else {
			wr = benchWorkload(self, w, *seed, time.Duration(*seconds*float64(time.Second)))
		}
		wr.check(pinned)
		wr.print(stdout, pinned)
		runs = append(runs, wr)
	}
	if *out != "" {
		if err := writeResults(*out, runs); err != nil {
			return 0, err
		}
	}
	s := summarize(runs, *trace == 1)
	b, err := json.Marshal(s)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(stdout, string(b))
	if !s.Correct {
		return 1, nil
	}
	return 0, nil
}

func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "" {
		return workloads, nil
	}
	w, err := findWorkload(name)
	return []workloadDef{w}, err
}

// workloadRun is every repetition of one workload in one invocation.
type workloadRun struct {
	Name   string   `json:"name"`
	Seed   int64    `json:"seed"`
	Reps   []rep    `json:"reps"`
	Errors []string `json:"errors,omitempty"`
	// Digest is the reference the repetitions are checked against: the
	// pinned digest at the pinned seed, else the most common one.
	Digest string `json:"digest"`
	Failed int    `json:"failed"`
	Traced bool   `json:"traced,omitempty"`
}

// benchWorkload runs untraced repetitions of w until the next one would
// end after budget, and at least minReps of them.
func benchWorkload(bin string, w workloadDef, seed int64, budget time.Duration) workloadRun {
	wr := workloadRun{Name: w.name, Seed: seed}
	start := time.Now()
	var last time.Duration
	for n := 0; n < minReps || time.Since(start)+last <= budget; n++ {
		t0 := time.Now()
		r, err := spawnRep(bin, w.name, seed, false)
		last = time.Since(t0)
		wr.add(r, err)
	}
	return wr
}

// traceWorkload runs one untraced and one traced repetition of w.
func traceWorkload(bin string, w workloadDef, seed int64) workloadRun {
	wr := workloadRun{Name: w.name, Seed: seed, Traced: true}
	for _, traced := range []bool{false, true} {
		r, err := spawnRep(bin, w.name, seed, traced)
		wr.add(r, err)
	}
	return wr
}

func (wr *workloadRun) add(r rep, err error) {
	if err != nil {
		wr.Errors = append(wr.Errors, err.Error())
		return
	}
	wr.Reps = append(wr.Reps, r)
}

func (wr *workloadRun) attempted() int { return len(wr.Reps) + len(wr.Errors) }

// check counts failed repetitions: those that errored, and those whose
// simulated result differs from the reference digest.
func (wr *workloadRun) check(pinned map[string]pinnedResult) {
	if p, ok := pinned[wr.Name]; ok && wr.Seed == pinnedSeed {
		wr.Digest = p.Digest
	} else {
		wr.Digest = commonDigest(wr.Reps)
	}
	wr.Failed = len(wr.Errors)
	for _, r := range wr.Reps {
		if r.Digest != wr.Digest {
			wr.Failed++
		}
	}
}

// commonDigest returns the digest most repetitions agree on (the
// earliest on a tie).
func commonDigest(reps []rep) string {
	count := map[string]int{}
	best := ""
	for _, r := range reps {
		count[r.Digest]++
		if count[r.Digest] > count[best] {
			best = r.Digest
		}
	}
	return best
}

// samples returns one end-to-end metric's value in every repetition.
func (wr *workloadRun) samples(m metricDef) []float64 {
	xs := make([]float64, len(wr.Reps))
	for i, r := range wr.Reps {
		xs[i] = m.value(r)
	}
	return xs
}

// layers returns the per-layer metrics of a traced run, nil unless
// both its repetitions succeeded.
func (wr *workloadRun) layers() map[string]float64 {
	if !wr.Traced || len(wr.Reps) != 2 || wr.Reps[1].Trace == nil {
		return nil
	}
	return layerMetrics(wr.Reps[0], wr.Reps[1])
}

func (wr *workloadRun) print(w io.Writer, pinned map[string]pinnedResult) {
	mode := fmt.Sprintf("%d repetitions", wr.attempted())
	if wr.Traced {
		mode = "traced pass"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s, %d failed\n", wr.Name, wr.Seed, mode, wr.Failed)
	for _, e := range wr.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	if wr.Traced {
		if l := wr.layers(); l != nil {
			for _, m := range perLayer {
				fmt.Fprintf(w, "   %-32s %16.6g %s\n", m.Name, l[m.Name], m.Unit)
			}
			fmt.Fprintf(w, "   span trace: %s\n", wr.Reps[1].Trace.TraceFile)
		}
	} else if len(wr.Reps) > 0 {
		for _, m := range endToEnd {
			xs := wr.samples(m)
			fmt.Fprintf(w, "   %-16s %14.6g %-7s min %-12.6g max %-12.6g (%s is better, bound %.0f%%)\n",
				m.Name, median(xs), m.Unit, slices.Min(xs), slices.Max(xs), m.Better, m.Bound*100)
		}
		host := make([]float64, len(wr.Reps))
		for i, r := range wr.Reps {
			host[i] = r.RefS / refNominalS
		}
		q1, q2, q3 := quartiles(host)
		fmt.Fprintf(w, "   host reference took %.3gx its quiet time (quartiles %.3g, %.3g); host times above are divided by it\n", q2, q1, q3)
	}
	if len(wr.Reps) == 0 {
		return
	}
	ref := "the other repetitions"
	if p, ok := pinned[wr.Name]; ok && wr.Seed == pinnedSeed {
		ref = "pinned"
		fmt.Fprintf(w, "   pinned   digest %.16s  exec_cycles %d  coverage %.6g  vl_fraction %.6g\n",
			p.Digest, p.ExecCycles, p.Coverage, p.VLFraction)
	} else {
		fmt.Fprintf(w, "   digest at seed %d: %s\n", wr.Seed, wr.Digest)
	}
	r := wr.Reps[0]
	fmt.Fprintf(w, "   result   digest %.16s  exec_cycles %d  coverage %.6g  vl_fraction %.6g  (%d of %d differ from %s)\n",
		r.Digest, r.ExecCycles, r.Coverage, r.VLFraction, wr.Failed-len(wr.Errors), len(wr.Reps), ref)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's machine-readable last line.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summarize reports each metric's median over the repetitions (the
// per-layer metrics with -trace 1). With more than one workload, metric
// names take the workload name as a prefix.
func summarize(runs []workloadRun, traced bool) summary {
	s := summary{Metrics: map[string]jsonMetric{}}
	for _, wr := range runs {
		s.Attempted += wr.attempted()
		s.Failed += wr.Failed
		prefix := ""
		if len(runs) > 1 {
			prefix = wr.Name + "."
		}
		put := func(m metricDef, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Metrics[prefix+m.Name] = jsonMetric{Value: v, Unit: m.Unit}
		}
		if traced {
			l := wr.layers()
			for _, m := range perLayer {
				put(m, l[m.Name])
			}
			continue
		}
		for _, m := range endToEnd {
			put(m, median(wr.samples(m)))
		}
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	return s
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Workloads []workloadRun `json:"workloads"`
}

func writeResults(path string, runs []workloadRun) error {
	b, err := json.MarshalIndent(resultFile{Workloads: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]workloadRun, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return f.Workloads, nil
}
