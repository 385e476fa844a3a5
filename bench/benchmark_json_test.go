package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which tells
// runners how to call the benchmark and what it reports, in step with
// the tables the command uses.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	pinned, err := loadPinned()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the command %q", i, b.Workloads[i].Name, w.name)
		}
		if _, ok := pinned[w.name]; !ok {
			t.Errorf("pinned.json has no result for %s", w.name)
		}
	}
	strip := func(ms []metricDef) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		}
		return out
	}
	if got, want := b.EndToEnd, strip(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end = %+v\nthe command reports %+v", got, want)
	}
	if got, want := b.PerLayer, strip(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer = %+v\nthe command reports %+v", got, want)
	}
}
