package main

import (
	"strings"
	"testing"

	"tilesim/internal/cmp"
	"tilesim/internal/noc"
)

// reduced shrinks a workload to a size the tests can run in seconds.
func reduced(w workloadDef) cmp.RunConfig {
	cfg := w.cfg
	cfg.RefsPerCore = max(cfg.RefsPerCore/200, 40)
	cfg.WarmupRefs = cfg.RefsPerCore / 10
	cfg.Seed = pinnedSeed
	return cfg
}

func TestReplayRejectsMalformedRecording(t *testing.T) {
	cfg := reduced(workloads[0])
	good := recMsg{at: 5, src: 0, dst: 1, typ: noc.GetS, addr: 0x8000_0040, size: noc.ShortMax}
	toSelf, unsized := good, good
	toSelf.dst = toSelf.src
	unsized.size = 0
	for name, bad := range map[string]recMsg{"to itself": toSelf, "without wire size": unsized} {
		rec := []recMsg{good, bad}
		if _, _, err := replayMesh(cfg, rec); err == nil || !strings.Contains(err.Error(), "recorded message 1") {
			t.Errorf("mesh replay of a message %s: err = %v, want a rejection of message 1", name, err)
		}
		if _, err := replayManager(cfg, rec); err == nil || !strings.Contains(err.Error(), "recorded message 1") {
			t.Errorf("manager replay of a message %s: err = %v, want a rejection of message 1", name, err)
		}
	}
	if _, _, err := replayMesh(cfg, []recMsg{good}); err != nil {
		t.Errorf("mesh replay of a valid message: %v", err)
	}
}

// TestTracedRunMatchesUntraced checks, on every workload at reduced
// size, that the tracing wrappers leave the simulated result
// byte-identical, and that every layer driver accepts the recording.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := reduced(w)
			plain, err := untracedRep(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := tracedRep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Digest != traced.Digest || plain.Events != traced.Events {
				t.Fatalf("traced run differs: digest %.16s vs %.16s, events %d vs %d",
					traced.Digest, plain.Digest, traced.Events, plain.Events)
			}
			tr := traced.Trace
			if tr.NextCalls == 0 || tr.DeliverCalls != tr.Msgs || len(traced.rec) == 0 {
				t.Errorf("spans missed work: %d Next, %d Deliver for %d messages, %d recorded",
					tr.NextCalls, tr.DeliverCalls, tr.Msgs, len(traced.rec))
			}
			if err := runDrivers(cfg, traced.rec, tr); err != nil {
				t.Fatal(err)
			}
			got := layerMetrics(plain, traced.rep)
			for _, m := range perLayer {
				if _, ok := got[m.Name]; !ok {
					t.Errorf("layer metric %s not computed", m.Name)
				}
			}
			if len(got) != len(perLayer) {
				t.Errorf("computed %d layer metrics, table has %d", len(got), len(perLayer))
			}
		})
	}
}
