package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metric and workload lists the
// program prints equal to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
		}
		for i, d := range got {
			if w := want[i]; d.name != w.Name || d.unit != w.Unit || d.better != w.Better {
				t.Errorf("%s %d: program %+v, BENCHMARK.json %+v", what, i, d, w)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q", i, w.name, spec.Workloads[i].Name)
		}
	}
}
