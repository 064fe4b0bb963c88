package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rdasched/internal/report"
)

// BENCHMARK.json declares the workloads and the end-to-end metrics the
// benchmark prints; the two must name the same metrics with the same
// units. The per-layer units are read from it at run time, and the traced
// test checks every per-layer metric is declared.
func TestSpecMatchesOutput(t *testing.T) {
	def, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	var wl struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &wl); err != nil {
		t.Fatal(err)
	}
	for _, w := range wl.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(wl.Workloads) != len(benchWorkloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(wl.Workloads), len(benchWorkloads))
	}

	res, err := runBench(workload{name: "spec", setup: func(uint64, string) (*inputs, error) {
		return &inputs{calls: []call{{"noop", func() ([]*report.Table, error) { return table("x"), nil }}}}, nil
	}}, 1, 1e-9, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	printed := map[string]string{}
	for _, s := range res.samples {
		printed[s.name] = s.unit
	}
	if len(printed) != len(def.EndToEnd) {
		t.Errorf("benchmark prints %d end-to-end metrics, BENCHMARK.json declares %d", len(printed), len(def.EndToEnd))
	}
	for _, m := range def.EndToEnd {
		if printed[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: printed unit %q, declared %q", m.Name, printed[m.Name], m.Unit)
		}
	}
}

func TestLayerResultNeedsEveryMetricDeclared(t *testing.T) {
	spec := &benchSpec{PerLayer: []metricSpec{{Name: "a", Unit: "s"}, {Name: "b", Unit: "count"}}}
	got, err := layerResult(spec, map[string]float64{"a": 1.5, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != (metricValue{1.5, "s"}) || got["b"] != (metricValue{2, "count"}) {
		t.Errorf("layerResult = %v", got)
	}
	if _, err := layerResult(spec, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric must be an error")
	}
	if _, err := layerResult(spec, map[string]float64{"a": 1}); err == nil {
		t.Error("a declared metric the run does not report must be an error")
	}
}
