package main

import (
	"path/filepath"
	"testing"

	"rdasched/internal/sim"
)

// The goldens are the model's pinned behaviour; the benchmark's golden
// mode must reproduce every one of them from the public harnesses.
func TestGoldensReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checked, errs := checkGoldens(filepath.Join("..", "internal", "experiments", "testdata"))
	if checked != 9 {
		t.Errorf("checked %d goldens, want 9", checked)
	}
	for _, err := range errs {
		t.Error(err)
	}
}

// The observed plan exercises every decorator and the persist path:
// both traced passes must reproduce perf.Sample's metrics exactly, and
// the tracer must see work in every layer the plan drives.
func TestObservedPlanIsFaithful(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	m, attempted, failed, err := runTraced(observedPlan(1, t.TempDir()), "")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 || attempted == 0 {
		t.Fatalf("%d of %d traced checks failed", failed, attempted)
	}
	for _, k := range []string{"machine.self_s", "core.self_s", "core.timer_fires", "core.wakes",
		"core.upkeep_s", "sinks.records", "report.mb_written", "persist.records", "persist.restore_s", "sim.step_ns"} {
		if m[k] <= 0 {
			t.Errorf("%s = %v, want the layer to have done work", k, m[k])
		}
	}
	if _, err := layerResult(spec, m); err != nil {
		t.Error(err)
	}
}

// The paper-figs plan must run the very replications the iteration runs:
// its reference samples, aggregated per cell, reproduce the harnesses'
// results, and every traced cell reproduces its reference.
func TestPaperFigsPlanIsTheIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m, attempted, failed, err := runTraced(paperFigsPlan(1), "")
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 || attempted == 0 {
		t.Fatalf("%d of %d traced checks failed", failed, attempted)
	}
	if m["machine.runs"] != 100 {
		t.Errorf("machine.runs = %v, want 96 policy-comparison and 4 granularity runs", m["machine.runs"])
	}
}

// Spans nest: a parent's self time excludes its children, and the self
// totals add up to the root's duration.
func TestTracerSelfTime(t *testing.T) {
	now := int64(0)
	tr := &tracer{clock: func() int64 { return now }, keep: true}
	tr.begin(layerExperiments) // 0
	now = 10
	tr.begin(layerMachine) // 10
	now = 15
	tr.begin(layerCore) // 15
	now = 19
	tr.end() // core 4
	now = 30
	tr.end() // machine 20, self 16
	now = 32
	tr.end() // experiments 32, self 12
	if tr.self[layerCore] != 4 || tr.self[layerMachine] != 16 || tr.self[layerExperiments] != 12 {
		t.Errorf("self times %v", tr.self)
	}
	if len(tr.spans) != 3 || tr.spans[0].parent != 1 || tr.spans[1].parent != 0 || tr.spans[2].parent != -1 {
		t.Errorf("spans %+v", tr.spans)
	}
}

func TestReplayEvents(t *testing.T) {
	times := []sim.Time{1, 2, 2, 5, 9}
	if ns := replayEvents([][]sim.Time{times, times[:2]}, 2); ns <= 0 {
		t.Errorf("replayEvents = %v ns per event", ns)
	}
	if ns := replayEvents(nil, 3); ns != 0 {
		t.Errorf("replayEvents of nothing = %v", ns)
	}
}
