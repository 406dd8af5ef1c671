package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json at the repository
// root in step with the metrics this program declares and reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, want)
		}
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program declares %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if doc.EndToEnd[i] != d {
			t.Errorf("end_to_end[%d] = %+v, program declares %+v", i, doc.EndToEnd[i], d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program declares %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if doc.PerLayer[i] != d.metricDef {
			t.Errorf("per_layer[%d] = %+v, program declares %+v", i, doc.PerLayer[i], d.metricDef)
		}
	}
}
