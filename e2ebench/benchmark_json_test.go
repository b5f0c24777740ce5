package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root names exactly the workloads and
// metrics this program runs and prints, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, want map[string]string) {
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(want))
		}
		for _, m := range listed {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %q unit %q: program has %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eUnits)
	check("per_layer", b.PerLayer, layerUnits())
}
