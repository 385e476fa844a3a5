// Command tilesim runs one application on one interconnect configuration
// of the tiled-CMP simulator and prints the full statistics: execution
// time, compression coverage, message mix, link and interconnect energy.
//
// Examples:
//
//	tilesim -app MP3D
//	tilesim -app FFT -scheme dbrc -entries 4 -lo 2 -het
//	tilesim -app Radix -scheme stride -lo 2 -het -refs 20000 -warmup 8000
//
// Observability (internal/obs, DESIGN.md §10):
//
//	tilesim -app FFT -metrics-out metrics.json
//	tilesim -app FFT -het -trace-out trace.json -trace-sample 8
//
// -metrics-out writes the full metrics snapshot (per-link utilization,
// latency breakdowns, MSHR residency, compression pipeline) as
// deterministic JSON; -trace-out writes a Chrome trace-event file
// loadable at https://ui.perfetto.dev, sampling every Nth message
// lifecycle per -trace-sample.
//
// Deterministic fault injection (DESIGN.md §11):
//
//	tilesim -app FFT -het -scheme dbrc -fault-ber 1e-6
//	tilesim -app FFT -het -scheme dbrc -fault-outage-plane VL \
//	    -fault-outage-start 5000 -fault-outage-cycles 20000
//
// All fault randomness is keyed by -seed: same-seed runs stay
// byte-identical at any BER.
//
// Trace replay (internal/trace; capture traces with cmd/tracegen):
//
//	tilesim -replay mp3d.trace -warmup 0 -het -scheme stride
//	tilesim -replay mp3d.trace -warmup 0 -metrics-out m.json -trace-out t.json
//
// -replay drives the -tiles cores from a captured trace's per-core op
// streams instead of a synthetic application, so one workload can be
// re-simulated under any configuration with every sink above. -app and
// -refs do not apply, -seed keys only the fault streams, and -warmup
// counts references of the trace. A trace that could never finish (a
// core short of the warmup, unequal barrier counts, or warmup points in
// different barrier phases) is rejected before the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tilesim/internal/cmp"
	"tilesim/internal/compress"
	"tilesim/internal/energy"
	"tilesim/internal/fault"
	"tilesim/internal/mesh"
	"tilesim/internal/noc"
	"tilesim/internal/obs"
	"tilesim/internal/trace"
	"tilesim/internal/workload"
)

// useReplay points cfg at the trace in path, decoded for cfg's tile
// count: the trace becomes the Generator, App names the file, and
// RefsPerCore, which only NewSystem's warmup check reads under a
// Generator, is the mean references per core, rounded up.
func useReplay(cfg *cmp.RunConfig, path string) error {
	topo, err := cfg.BuildTopology()
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, err := trace.Decode(f, topo.Tiles())
	f.Close()
	if err != nil {
		return err
	}
	s := tr.Summarize()
	if s.Loads+s.Stores == 0 {
		return fmt.Errorf("trace %s has no memory references", path)
	}
	if err := tr.CheckReplay(cfg.WarmupRefs); err != nil {
		return fmt.Errorf("replay %s: %w", path, err)
	}
	cfg.App = "replay:" + path
	cfg.Generator = tr
	cfg.RefsPerCore = (s.Loads + s.Stores + s.Cores - 1) / s.Cores
	return nil
}

// writeSeries writes the epoch series as CSV or JSON, chosen by the
// file extension (.json selects JSON, anything else CSV).
func writeSeries(path string, s *obs.SeriesData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = s.WriteJSON(f)
	} else {
		err = s.WriteCSV(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		app     = flag.String("app", "FFT", "application: "+strings.Join(workload.AppNames(), ", "))
		replay  = flag.String("replay", "", "drive the cores from this captured trace instead of -app")
		scheme  = flag.String("scheme", "none", "compression scheme: none, dbrc, stride, perfect")
		entries = flag.Int("entries", 4, "DBRC compression-cache entries (4, 16, 64)")
		lo      = flag.Int("lo", 2, "low-order bytes (1 or 2); delta bytes for stride")
		het     = flag.Bool("het", false, "use the heterogeneous VL+B interconnect")
		refs    = flag.Int("refs", 8000, "memory references per core")
		warmup  = flag.Int("warmup", 3000, "warmup references per core before measurement")
		seed    = flag.Int64("seed", 1, "workload seed")
		topo    = flag.String("topo", "mesh", "interconnect topology: "+strings.Join(cmp.TopologyNames, ", "))
		tiles   = flag.Int("tiles", 16, "tile count (power of two, 4..1024)")

		metricsOut  = flag.String("metrics-out", "", "write the metrics snapshot as JSON to this file")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event file (Perfetto) to this file")
		traceSample = flag.Int("trace-sample", 1, "trace every Nth message lifecycle")

		seriesOut      = flag.String("series-out", "", "write the epoch time series to this file (.csv or .json by extension)")
		seriesInterval = flag.Int("series-interval", 1024, "epoch series sampling interval in cycles (with -series-out)")

		faultBER          = flag.Float64("fault-ber", 0, "per-wire bit-error rate (0 disables bit errors)")
		faultVLScale      = flag.Float64("fault-vl-ber-scale", 0, "VL-plane BER multiplier (0 or 1 = same as B)")
		faultOutagePlane  = flag.String("fault-outage-plane", "", "plane to take down: B, VL or PW")
		faultOutageStart  = flag.Uint64("fault-outage-start", 0, "outage window start cycle")
		faultOutageCycles = flag.Uint64("fault-outage-cycles", 0, "outage window length in cycles")
		faultStallProb    = flag.Float64("fault-stall-prob", 0, "per-hop router stall probability")
		faultStallCycles  = flag.Int("fault-stall-cycles", 0, "injected stall length in cycles (0 = default 8)")
		faultRetryLimit   = flag.Int("fault-retry-limit", 0, "per-message retransmission budget (0 = default 8)")
	)
	flag.Parse()

	cfg := cmp.RunConfig{
		App:           *app,
		RefsPerCore:   *refs,
		WarmupRefs:    *warmup,
		Seed:          *seed,
		Topology:      *topo,
		Tiles:         *tiles,
		Compression:   compress.Spec{Kind: *scheme, Entries: *entries, LowOrderBytes: *lo},
		Heterogeneous: *het,
		Faults: fault.Config{
			BER:          *faultBER,
			VLBERScale:   *faultVLScale,
			OutagePlane:  *faultOutagePlane,
			OutageStart:  *faultOutageStart,
			OutageCycles: *faultOutageCycles,
			StallProb:    *faultStallProb,
			StallCycles:  *faultStallCycles,
			RetryLimit:   *faultRetryLimit,
		},
	}
	if *seriesOut != "" {
		if *seriesInterval <= 0 {
			fmt.Fprintln(os.Stderr, "tilesim: -series-out needs a positive -series-interval")
			os.Exit(1)
		}
		cfg.SeriesInterval = *seriesInterval
	}
	if *replay != "" {
		if err := useReplay(&cfg, *replay); err != nil {
			fmt.Fprintln(os.Stderr, "tilesim:", err)
			os.Exit(1)
		}
	}
	sys, err := cmp.NewSystem(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tilesim:", err)
		os.Exit(1)
	}
	var traceFile *os.File
	var tracer *obs.Tracer
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tilesim:", err)
			os.Exit(1)
		}
		tracer = obs.NewTracer(traceFile, *traceSample)
		sys.SetTracer(tracer)
	}
	r, err := sys.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tilesim:", err)
		os.Exit(1)
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tilesim: trace:", err)
			os.Exit(1)
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tilesim: trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tilesim: wrote trace to %s (load at https://ui.perfetto.dev)\n", *traceOut)
	}
	if *seriesOut != "" {
		if err := writeSeries(*seriesOut, r.Series); err != nil {
			fmt.Fprintln(os.Stderr, "tilesim: series:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tilesim: wrote %d series samples to %s\n", r.Series.Rows(), *seriesOut)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tilesim:", err)
			os.Exit(1)
		}
		if err := r.Metrics.WriteJSON(f); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tilesim: metrics:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tilesim: wrote %d metrics to %s\n", len(r.Metrics), *metricsOut)
	}

	report(os.Stdout, cfg, sys, r)
}

// report prints the run's statistics: execution time, the message
// mix, compression coverage, fault counters and energy.
func report(w io.Writer, cfg cmp.RunConfig, sys *cmp.System, r cmp.Result) {
	fmt.Fprintf(w, "application         %s\n", r.App)
	fmt.Fprintf(w, "configuration       %s", r.Config)
	if cfg.Heterogeneous {
		vl, _ := cfg.VLWidthBytes()
		fmt.Fprintf(w, "  (heterogeneous: %dB VL + 34B B wires)", vl)
	} else {
		fmt.Fprintf(w, "  (baseline: 75B B wires)")
	}
	fmt.Fprintln(w)
	if t := sys.Net.Topology(); t.Name() != "mesh" || t.Tiles() != 16 {
		fmt.Fprintf(w, "topology            %s (%d tiles, %d routers, %d links, avg %.2f hops)\n",
			t.Label(), t.Tiles(), t.Nodes(), sys.Net.Links(), mesh.AvgHops(t))
	}
	fmt.Fprintf(w, "execution time      %d cycles (%.3f us at 4 GHz)\n", r.ExecCycles, float64(r.ExecCycles)/4e9*1e6)
	fmt.Fprintf(w, "references          %d loads, %d stores\n", r.Loads, r.Stores)
	fmt.Fprintf(w, "L1 misses           %d (%.1f%%), mean latency %.0f cycles\n",
		r.L1Misses, 100*float64(r.L1Misses)/float64(r.Loads+r.Stores), r.MeanMissLatency)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "network messages    %d remote + %d tile-local\n", r.Net.TotalMessages(), r.LocalMessages)
	for c := 0; c < int(noc.NumClasses); c++ {
		fmt.Fprintf(w, "  %-20s %8d  (%5.1f%%)  %8d bytes\n",
			noc.Class(c).String(), r.Net.Messages[c],
			100*float64(r.Net.Messages[c])/float64(r.Net.TotalMessages()), r.Net.Bytes[c])
	}
	fmt.Fprintf(w, "mean hop queueing   %.2f cycles\n", r.Net.MeanHopQueuing)
	fmt.Fprintf(w, "request latency     p50 %.0f / p99 %.0f cycles\n", r.RequestLatencyP50, r.RequestLatencyP99)
	fmt.Fprintln(w)
	if cfg.Compression.Kind != "none" {
		fmt.Fprintf(w, "compression         coverage %.1f%%, %d hardware events\n", 100*r.Coverage, r.ComprEvents)
	}
	if cfg.Heterogeneous {
		fmt.Fprintf(w, "VL-wire traffic     %.1f%% of remote messages\n", 100*r.VLFraction)
	}
	if cfg.Faults.Enabled() {
		fmt.Fprintf(w, "fault injection     %d CRC errors, %d retries, %d flits retransmitted\n",
			r.Net.CRCErrors, r.Net.Retries, r.Net.RetryFlits)
		if r.Failovers > 0 {
			fmt.Fprintf(w, "plane failover      %d critical messages rerouted uncompressed\n", r.Failovers)
		}
	}
	fmt.Fprintf(w, "link energy         %.3g J dynamic + %.3g J static\n", r.Link.DynJ, r.Link.StaticJ)
	fmt.Fprintf(w, "interconnect energy %.3g J (links + routers)\n", r.InterconnectJ)
	fmt.Fprintf(w, "link ED2P           %.4g J*s^2\n", energy.ED2P(r.Link.TotalJ(), r.ExecCycles))
}
