package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesReportedMetrics keeps BENCHMARK.json and the
// metrics the program prints in step: every declared metric is reported
// with its declared unit, and nothing undeclared is reported.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, decls []decl, table map[string]string) {
		if len(decls) != len(table) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(decls), len(table))
		}
		for _, d := range decls {
			if unit, ok := table[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s: %s declared in %s, reported in %q", kind, d.Name, d.Unit, unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}
