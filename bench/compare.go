package main

import (
	"fmt"
	"io"
	"path/filepath"
)

// compareFiles compares two result files written by -out.
func compareFiles(w io.Writer, basePath, headPath string) (int, error) {
	base, err := readResults(basePath)
	if err != nil {
		return 0, err
	}
	head, err := readResults(headPath)
	if err != nil {
		return 0, err
	}
	return compareRuns(w, base, head), nil
}

// runAB runs repetitions of two benchmark binaries interleaved on this
// host, pairs per workload, alternating which side goes first, and
// compares them. Each binary is built from the bench package of its
// own commit. A pair in which either side fails is left out of both
// sides' samples, so base.Reps[i] and head.Reps[i] always ran back to
// back; the failure still counts.
func runAB(w io.Writer, baseBin, headBin string, pairs int, ws []workloadDef, seed int64) (int, error) {
	bins := [2]string{baseBin, headBin}
	for i, b := range bins {
		abs, err := filepath.Abs(b)
		if err != nil {
			return 0, err
		}
		bins[i] = abs
	}
	var base, head []workloadRun
	for _, wl := range ws {
		sides := [2]workloadRun{{Name: wl.name, Seed: seed}, {Name: wl.name, Seed: seed}}
		for i := 0; i < pairs; i++ {
			var reps [2]rep
			var errs [2]error
			for j := 0; j < 2; j++ {
				side := (i + j) % 2
				reps[side], errs[side] = spawnRep(bins[side], wl.name, seed, false)
			}
			for side := range sides {
				switch {
				case errs[side] != nil:
					sides[side].Errors = append(sides[side].Errors, errs[side].Error())
				case errs[1-side] == nil:
					sides[side].Reps = append(sides[side].Reps, reps[side])
				}
			}
		}
		for i := range sides {
			sides[i].check(nil)
		}
		base, head = append(base, sides[0]), append(head, sides[1])
	}
	return compareRuns(w, base, head), nil
}

// compareRuns prints one row per workload and end-to-end metric present
// on both sides, and returns 1 if any metric got worse or the two sides
// simulated different results.
func compareRuns(w io.Writer, base, head []workloadRun) int {
	code := 0
	fmt.Fprintf(w, "%-17s %-15s %-38s %-38s %8s  %s\n",
		"workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "verdict")
	for _, h := range head {
		var b *workloadRun
		for i := range base {
			if base[i].Name == h.Name && !base[i].Traced {
				b = &base[i]
			}
		}
		if b == nil || h.Traced {
			fmt.Fprintf(w, "%-17s no untraced repetitions on both sides\n", h.Name)
			continue
		}
		for _, m := range endToEnd {
			bs, hs := b.samples(m), h.samples(m)
			v := verdict(bs, hs, m.Better == "higher", m.Bound)
			if v == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-17s %-15s %-38s %-38s %+7.2f%%  %s\n",
				h.Name, m.Name, quartileCell(bs), quartileCell(hs), 100*(median(hs)/median(bs)-1), v)
		}
		if b.Digest != h.Digest || b.Failed > 0 || h.Failed > 0 {
			code = 1
			fmt.Fprintf(w, "%-17s RESULTS DIFFER: base digest %.16s (%d failed), head digest %.16s (%d failed)\n",
				h.Name, b.Digest, b.Failed, h.Digest, h.Failed)
		}
	}
	return code
}

func quartileCell(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q2, q1, q3)
}
