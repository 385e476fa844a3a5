package cmp

import (
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/trace"
	"tilesim/internal/workload"
)

func TestWiringLabels(t *testing.T) {
	cases := []struct {
		cfg  RunConfig
		want string
	}{
		{RunConfig{Compression: compress.Spec{Kind: "none"}}, "baseline"},
		{RunConfig{Compression: compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}, Heterogeneous: true},
			"4-entry DBRC (2B LO)"},
		{RunConfig{Compression: compress.Spec{Kind: "none"}, Wiring: "lpw"},
			"reply partitioning (L+PW)"},
		{RunConfig{Compression: compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2}, Wiring: "vlbpw"},
			"4-entry DBRC (2B LO) +RP (VL+B+PW)"},
	}
	for _, c := range cases {
		if got := c.cfg.Label(); got != c.want {
			t.Errorf("label = %q, want %q", got, c.want)
		}
	}
}

func TestLPWRunsAndUsesPWWires(t *testing.T) {
	r, err := Run(RunConfig{
		App: "MP3D", RefsPerCore: 1000, WarmupRefs: 300, Seed: 1,
		Compression: compress.Spec{Kind: "none"},
		Wiring:      "lpw",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.VLFraction == 0 {
		t.Error("no traffic on L wires")
	}
	if r.PWFraction == 0 {
		t.Error("no traffic on PW wires")
	}
	// Short critical messages fit the 11-byte L channel uncompressed, so
	// most messages should be off the (PW-implemented) bulk plane.
	if r.VLFraction < 0.3 {
		t.Errorf("L-wire fraction %.2f unexpectedly low", r.VLFraction)
	}
}

func TestVLBPWRequiresCompression(t *testing.T) {
	_, err := Run(RunConfig{
		App: "FFT", RefsPerCore: 100, Seed: 1,
		Compression: compress.Spec{Kind: "none"},
		Wiring:      "vlbpw",
	})
	if err == nil {
		t.Fatal("vlbpw without compression accepted")
	}
}

func TestVLBPWCombinedRuns(t *testing.T) {
	r, err := Run(RunConfig{
		App: "Unstructured", RefsPerCore: 1000, WarmupRefs: 300, Seed: 1,
		Compression: compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2},
		Wiring:      "vlbpw",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.VLFraction == 0 || r.PWFraction == 0 {
		t.Errorf("combined layout planes unused: VL=%.2f PW=%.2f", r.VLFraction, r.PWFraction)
	}
	if r.Coverage == 0 {
		t.Error("no compression in combined layout")
	}
}

func TestUnknownWiringRejected(t *testing.T) {
	_, err := Run(RunConfig{
		App: "FFT", RefsPerCore: 100, Seed: 1,
		Compression: compress.Spec{Kind: "none"},
		Wiring:      "quantum",
	})
	if err == nil {
		t.Fatal("unknown wiring accepted")
	}
}

func TestTraceReplayDrivesSystem(t *testing.T) {
	gen, err := workload.NewNamedApp("FFT", 16, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Capture(gen, 16)
	cfg := RunConfig{
		App:         "FFT-replayed",
		RefsPerCore: 400,
		Seed:        1,
		Compression: compress.Spec{Kind: "none"},
		Generator:   tr,
	}
	replayed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the captured trace is bit-identical to running the
	// original generator.
	direct, err := Run(baselineCfg("FFT", 400))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.ExecCycles != direct.ExecCycles ||
		replayed.Net.TotalMessages() != direct.Net.TotalMessages() {
		t.Fatalf("replay diverged: %d/%d cycles, %d/%d messages",
			replayed.ExecCycles, direct.ExecCycles,
			replayed.Net.TotalMessages(), direct.Net.TotalMessages())
	}
}
