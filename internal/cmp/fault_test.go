package cmp

import (
	"reflect"
	"strings"
	"testing"

	"tilesim/internal/compress"
	"tilesim/internal/fault"
	"tilesim/internal/mesh"
)

func faultCfg(app string, refs int, f fault.Config) RunConfig {
	cfg := hetCfg(app, refs, compress.Spec{Kind: "dbrc", Entries: 4, LowOrderBytes: 2})
	cfg.Faults = f
	return cfg
}

func TestFaultRunSameSeedByteIdentical(t *testing.T) {
	cfg := faultCfg("FFT", 400, fault.Config{BER: 1e-5, RetryLimit: 64})
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("same-seed fault-injected runs produced different results")
	}
	if r1.Net.CRCErrors == 0 {
		t.Fatal("no CRC errors injected at BER 1e-5; determinism check is vacuous")
	}
	// Every injected error was corrected: no drops, exact accounting.
	if r1.Net.Dropped != 0 {
		t.Fatalf("%d drops with a 64-retry budget", r1.Net.Dropped)
	}
	if r1.Net.Retries != r1.Net.CRCErrors {
		t.Fatalf("retries %d != crc errors %d with zero drops", r1.Net.Retries, r1.Net.CRCErrors)
	}
	if _, ok := r1.Metrics.Get("net.fault.crc_errors"); !ok {
		t.Error("fault-injected run missing net.fault.crc_errors metric")
	}
	if _, ok := r1.Metrics.Get("mgr.failover_msgs"); !ok {
		t.Error("fault-injected run missing mgr.failover_msgs metric")
	}
}

func TestFaultInjectionSlowsTheRunDown(t *testing.T) {
	clean, err := Run(faultCfg("Ocean-cont", 300, fault.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Run(faultCfg("Ocean-cont", 300, fault.Config{BER: 1e-4, RetryLimit: 64}))
	if err != nil {
		t.Fatal(err)
	}
	if noisy.ExecCycles <= clean.ExecCycles {
		t.Fatalf("BER 1e-4 run (%d cycles) not slower than fault-free (%d cycles)",
			noisy.ExecCycles, clean.ExecCycles)
	}
	// Fault-free runs carry no fault artifacts at all.
	if clean.Net.CRCErrors != 0 || clean.Failovers != 0 {
		t.Fatalf("fault-free run has fault counters: %+v", clean.Net)
	}
	if _, ok := clean.Metrics.Get("net.fault.crc_errors"); ok {
		t.Error("fault-free run registers net.fault.* metrics")
	}
	if _, ok := clean.Metrics.Get("mgr.failover_msgs"); ok {
		t.Error("fault-free run registers mgr.failover_msgs")
	}
}

func TestRetryBudgetExhaustionFailsTheRun(t *testing.T) {
	// BER 0.5 corrupts essentially every multi-byte traversal; with a
	// 2-retry budget the first message drops and the run must return an
	// explicit error instead of hanging in the deadlock diagnosis.
	_, err := Run(faultCfg("FFT", 50, fault.Config{BER: 0.5, RetryLimit: 2}))
	if err == nil {
		t.Fatal("run with an exhausted retry budget reported success")
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("error %q does not surface the retry budget", err)
	}
}

func TestVLOutageFailsOverToBulkPlane(t *testing.T) {
	// An outage covering the whole run: every critical message that
	// would have compressed onto the VL wires must fail over to the B
	// plane uncompressed, and the run still completes.
	r, err := Run(faultCfg("FFT", 300, fault.Config{
		OutagePlane: "VL", OutageStart: 0, OutageCycles: 1 << 40,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failovers == 0 {
		t.Fatal("no failovers recorded during a full-run VL outage")
	}
	if r.Net.PlaneMessages[mesh.PlaneVL] != 0 || r.VLFraction != 0 {
		t.Fatalf("messages rode the VL plane during its outage: %d", r.Net.PlaneMessages[mesh.PlaneVL])
	}
	if r.Coverage != 0 {
		t.Fatalf("compression ran during the VL outage: coverage %g", r.Coverage)
	}
	// Compare against the fault-free run: the degraded run loses the
	// low-latency wires, so it cannot be faster.
	clean, err := Run(faultCfg("FFT", 300, fault.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if r.ExecCycles < clean.ExecCycles {
		t.Fatalf("degraded run (%d cycles) beat the fault-free run (%d cycles)",
			r.ExecCycles, clean.ExecCycles)
	}
	if clean.Failovers != 0 {
		t.Fatal("fault-free run recorded failovers")
	}
}

func TestInvalidFaultConfigRejected(t *testing.T) {
	for _, f := range []fault.Config{
		{BER: -1},
		{BER: 1},
		{StallProb: 2},
		{OutagePlane: "X"},
	} {
		if _, err := NewSystem(faultCfg("FFT", 100, f)); err == nil {
			t.Errorf("fault config %+v accepted", f)
		}
	}
}
