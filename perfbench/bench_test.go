package main

import (
	"errors"
	"fmt"
	"testing"

	"rdasched/internal/report"
)

func table(cell string) []*report.Table {
	t := report.NewTable("t", "c")
	t.AddRow(cell)
	return []*report.Table{t}
}

func TestDigestCheckerMismatchIsAnError(t *testing.T) {
	a, b := digest(table("a")), digest(table("b"))
	if a == b {
		t.Fatal("different tables hash the same")
	}

	dc := &digestChecker{first: make([]string, 1)}
	if err := dc.check(0, "call", a); err != nil {
		t.Fatalf("first iteration: %v", err)
	}
	if err := dc.check(0, "call", a); err != nil {
		t.Errorf("agreeing iteration: %v", err)
	}
	if err := dc.check(0, "call", b); err == nil {
		t.Error("an iteration whose tables hash differently must be an error")
	}

	pinned := &digestChecker{committed: []string{a}, first: make([]string, 1)}
	if err := pinned.check(0, "call", b); err == nil {
		t.Error("tables that differ from the committed digest must be an error")
	}
	if err := pinned.check(0, "call", a); err != nil {
		t.Errorf("tables matching the committed digest: %v", err)
	}
}

// A call whose output changes between iterations, or that fails or
// panics, counts against error_rate; the run still completes.
func TestRunBenchCountsFailedCalls(t *testing.T) {
	n := 0
	w := workload{name: "test", setup: func(uint64, string) (*inputs, error) {
		return &inputs{calls: []call{
			{"steady", func() ([]*report.Table, error) { return table("x"), nil }},
			{"drifting", func() ([]*report.Table, error) { n++; return table(fmt.Sprint(n)), nil }},
			{"failing", func() ([]*report.Table, error) { return nil, errors.New("boom") }},
			{"panicking", func() ([]*report.Table, error) { panic("boom") }},
		}}, nil
	}}
	res, err := runBench(w, 1, 1e-9, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One warm-up and one timed iteration of four calls: the drifting
	// call agrees with itself only on its first run.
	if res.attempted != 8 || res.failed != 5 {
		t.Errorf("attempted %d failed %d, want 8 and 5", res.attempted, res.failed)
	}
	if len(res.samples) != 4 || res.samples[0].name != "setup_s" || len(res.samples[0].values) != setupBatches {
		t.Errorf("unexpected samples %+v", res.samples)
	}
}
