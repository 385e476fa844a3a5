// Package tilesim is a tiled chip-multiprocessor simulator reproducing
// "Address Compression and Heterogeneous Interconnects for
// Energy-Efficient High-Performance in Tiled CMPs" (Flores, Acacio,
// Aragón — ICPP 2008).
//
// The simulator models the paper's 16-core tiled CMP (4x4 mesh,
// private L1s, a shared NUCA L2, directory MESI coherence) — scalable
// to 1024 tiles on pluggable topologies (DESIGN.md §14) — and the
// paper's proposal:
// dynamic address compression of coherence requests and commands (DBRC
// and Stride schemes) combined with a heterogeneous interconnect whose
// links split into a few very-low-latency VL-Wires for short critical
// messages plus baseline wires for everything else.
//
// Module map (each package's modelling decisions live in the named
// DESIGN.md section):
//
//	internal/sim        deterministic event kernel and        DESIGN.md §3, §16
//	                    fixed-delay queues
//	internal/stats      counters, histograms, tables          DESIGN.md §3
//	internal/wire       wire RC physics, Table 2/3 catalogs   DESIGN.md §5
//	internal/cacti      SRAM cost models (Table 1)            DESIGN.md §5
//	internal/compress   DBRC / Stride / Perfect codecs        DESIGN.md §5
//	internal/noc        message model and classification      DESIGN.md §5
//	internal/mesh       link layouts, Topology value (mesh,   DESIGN.md §5, §7, §14
//	                    cmesh, torus, slim), wormhole
//	                    network, per-plane links
//	internal/cache      L1/L2 arrays and MSHRs                DESIGN.md §3
//	internal/coherence  directory MESI protocol               DESIGN.md §5
//	internal/cmp        system assembly and run harness       DESIGN.md §3
//	internal/energy     link/router/chip energy, ED^2P        DESIGN.md §5
//	internal/workload   13 SPLASH-2-class synthetic apps      DESIGN.md §5
//	internal/core       the proposal: compress + plane map    DESIGN.md §1
//	internal/obs        metrics registry, epoch series,       DESIGN.md §10
//	                    tracer, shared pollers
//	internal/trace      workload record/replay and replay     DESIGN.md §7
//	                    validation
//	internal/sweep      parallel sweep engine + result cache  DESIGN.md §9
//	                    + result digests
//	internal/figures    paper table/figure regeneration       DESIGN.md §4
//	internal/analysis   tilesimvet's two per-package rules    DESIGN.md §8
//	cmd/tilesim         single-run CLI, also trace replay
//	cmd/tables          Tables 1-3 (analytic, no simulation)
//	cmd/figures         Figures 2, 5, 6, 7 + ablations + the
//	                    topology scale study (-scale) via the
//	                    sweep engine
//	cmd/tracegen        trace capture and summary
//	cmd/tilesimvet      the static analyzer CLI (no flags)
//
// The benchmarks in bench_test.go regenerate each table and figure at a
// reduced scale and measure the sweep engine's serial-vs-parallel
// throughput; see EXPERIMENTS.md for full-scale paper-vs-measured
// numbers (with per-section reproduction commands) and DESIGN.md for
// modelling decisions.
package tilesim
