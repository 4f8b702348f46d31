package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestLayerSelfTimeAndCoverage(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Layer: "bench", Parent: -1, Start: 0, End: 10},
		{Name: "a", Layer: "spectral", Parent: 0, Start: 1, End: 5},
		{Name: "b", Layer: "markov", Parent: 1, Start: 2, End: 3},
		{Name: "c", Layer: "markov", Parent: 0, Start: 6, End: 8},
		{Name: "open", Layer: "distmix", Parent: 0, Start: 8, End: -1},
	}}
	self := tr.layerSelf()
	want := map[string]time.Duration{"bench": 4, "spectral": 3, "markov": 3}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("layerSelf = %v, want %v", self, want)
	}
	if got := tr.duration(0); got != 10 {
		t.Errorf("duration(root) = %v, want 10", got)
	}
	if got := tr.coverage(10); got != 0.6 {
		t.Errorf("coverage = %v, want 0.6", got)
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the
// command reports.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, command %v", names, have)
	}
	if !reflect.DeepEqual(b.EndToEnd, e2eMetrics) {
		t.Errorf("end_to_end: BENCHMARK.json %v, command %v", b.EndToEnd, e2eMetrics)
	}
	if !reflect.DeepEqual(b.PerLayer, layerMetrics) {
		t.Errorf("per_layer: BENCHMARK.json %v, command %v", b.PerLayer, layerMetrics)
	}
}
