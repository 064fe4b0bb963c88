package machine_test

import (
	"reflect"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
)

// runStrict runs w under a core Strict gate and returns the machine's
// result and the scheduler's statistics.
func runStrict(t *testing.T, w proc.Workload) (*machine.Result, core.Stats) {
	t.Helper()
	cfg := machine.DefaultConfig()
	s := core.New(core.StrictPolicy{}, cfg.LLCCapacity)
	m := machine.New(cfg, s)
	s.SetWaker(m)
	s.SetClock(m.Now)
	s.SetTimer(m.Engine())
	if err := m.AddWorkload(w); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, s.Stats()
}

// TestRepeatMatchesListedPhases runs a phase with Repeat n and the same
// phase listed n times under the Strict gate: the machine result and the
// scheduler's statistics must be identical, because the gate sees the
// same phase indices in the same order.
func TestRepeatMatchesListedPhases(t *testing.T) {
	const n = 64
	slice := proc.Phase{
		Name: "slice", Instr: 2e6, WSS: pp.MB(6), Reuse: pp.ReuseHigh,
		AccessesPerInstr: 0.3, PrivateHitFrac: 0.8, FlopsPerInstr: 0.5, Declared: true,
	}
	setup := proc.Phase{Name: "init", Instr: 1e6, WSS: pp.MB(1), Reuse: pp.ReuseLow, AccessesPerInstr: 0.2, BarrierAfter: true}
	build := func(repeat bool) proc.Workload {
		prog := proc.Program{setup}
		if repeat {
			ph := slice
			ph.Repeat = n
			prog = append(prog, ph)
		} else {
			for i := 0; i < n; i++ {
				prog = append(prog, slice)
			}
		}
		// Three 2-thread processes of 6 MB periods overflow the 15 MB
		// LLC, so the gate denies and wakes.
		w := proc.Workload{Name: "repeat"}
		for _, name := range []string{"a", "b", "c"} {
			w.Procs = append(w.Procs, proc.Spec{Name: name, Threads: 2, Program: prog})
		}
		return w
	}
	res, stats := runStrict(t, build(true))
	wantRes, wantStats := runStrict(t, build(false))
	if !reflect.DeepEqual(res, wantRes) {
		t.Fatalf("Repeat result differs from listed phases:\n%+v\n%+v", res, wantRes)
	}
	if stats != wantStats {
		t.Fatalf("Repeat scheduler stats differ from listed phases:\n%+v\n%+v", stats, wantStats)
	}
	if res.Counters.PPBlocks == 0 || stats.Ends != 3*n {
		t.Fatalf("the gate did not arbitrate every period: %d blocks, %d ends", res.Counters.PPBlocks, stats.Ends)
	}
}
