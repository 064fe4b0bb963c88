package profiler

import (
	"testing"

	"rdasched/internal/memtrace"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
)

func instrProgram() proc.Program {
	mk := func(name string, instr float64, barrier bool) proc.Phase {
		return proc.Phase{
			Name: name, Instr: instr, WSS: pp.MB(1), Reuse: pp.ReuseLow,
			AccessesPerInstr: 0.3, PrivateHitFrac: 0.8, FlopsPerInstr: 0.5,
			BarrierAfter: barrier,
		}
	}
	return proc.Program{
		mk("init", 1e6, false),
		mk("hot1", 1e7, false),
		mk("sync", 1e6, true),
		mk("hot2", 1e7, false),
	}
}

func TestInstrumentMarksOverlappingPhases(t *testing.T) {
	prog := instrProgram()
	// Periods covering hot1 (1e6..1.1e7) and hot2 (1.2e7..2.2e7), with
	// measured demands differing from the nominal phases.
	periods := []Period{
		{StartInstr: 1e6, EndInstr: 11e6, WSS: pp.MB(3), ReuseRatio: 50, Reuse: pp.ReuseHigh},
		{StartInstr: 12e6, EndInstr: 22e6, WSS: pp.MB(2), ReuseRatio: 10, Reuse: pp.ReuseMed},
	}
	out, err := Instrument(prog, periods, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Declared || out[2].Declared {
		t.Fatal("init/sync phases instrumented")
	}
	if !out[1].Declared || !out[3].Declared {
		t.Fatal("hot phases not instrumented")
	}
	// The measured demand replaces the nominal one.
	if out[1].WSS != pp.MB(3) || out[1].Reuse != pp.ReuseHigh {
		t.Fatalf("hot1 demand = %v/%v, want measured 3MB/high", out[1].WSS, out[1].Reuse)
	}
	if out[3].WSS != pp.MB(2) || out[3].Reuse != pp.ReuseMed {
		t.Fatalf("hot2 demand = %v/%v", out[3].WSS, out[3].Reuse)
	}
	// The input program is untouched.
	if prog[1].Declared {
		t.Fatal("Instrument mutated its input")
	}
}

func TestInstrumentRespectsBarriers(t *testing.T) {
	prog := instrProgram()
	// One period covering the whole run: barrier phases must stay
	// undeclared regardless (§3.4).
	periods := []Period{{StartInstr: 0, EndInstr: 22e6, WSS: pp.MB(1), Reuse: pp.ReuseHigh}}
	out, err := Instrument(prog, periods, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if out[2].Declared {
		t.Fatal("barrier phase instrumented")
	}
	if !out[1].Declared || !out[3].Declared {
		t.Fatal("computation phases not instrumented")
	}
}

func TestInstrumentOverlapThreshold(t *testing.T) {
	prog := instrProgram()
	// A period covering only 30% of hot1.
	periods := []Period{{StartInstr: 1e6, EndInstr: 4e6, WSS: pp.MB(3), Reuse: pp.ReuseHigh}}
	out, err := Instrument(prog, periods, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Declared {
		t.Fatal("phase instrumented below overlap threshold")
	}
	out, err = Instrument(prog, periods, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !out[1].Declared {
		t.Fatal("phase not instrumented above overlap threshold")
	}
}

func TestInstrumentValidation(t *testing.T) {
	if _, err := Instrument(proc.Program{}, nil, 0.5); err == nil {
		t.Fatal("empty program accepted")
	}
	if _, err := Instrument(instrProgram(), nil, 0); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if _, err := Instrument(instrProgram(), nil, 1.5); err == nil {
		t.Fatal("threshold >1 accepted")
	}
	repeated := instrProgram()
	repeated[1].Repeat = 4
	if _, err := Instrument(repeated, nil, 0.5); err == nil {
		t.Fatal("repeated phase accepted")
	}
}

func TestInstrumentNoPeriodsNoChange(t *testing.T) {
	out, err := Instrument(instrProgram(), nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range out {
		if ph.Declared {
			t.Fatal("phase declared with no detected periods")
		}
	}
}

func TestOverlapFunction(t *testing.T) {
	cases := []struct{ a0, a1, b0, b1, want float64 }{
		{0, 10, 5, 15, 5},
		{0, 10, 10, 20, 0},
		{0, 10, -5, 25, 10},
		{5, 8, 0, 10, 3},
		{0, 10, 20, 30, 0},
	}
	for _, c := range cases {
		if got := overlap(c.a0, c.a1, c.b0, c.b1); got != c.want {
			t.Errorf("overlap(%v,%v,%v,%v) = %v, want %v", c.a0, c.a1, c.b0, c.b1, got, c.want)
		}
	}
}

// TestInstrumentEndToEnd closes the full automation loop: trace →
// windows → periods → Instrument → a schedulable program whose declared
// phases carry measured demands.
func TestInstrumentEndToEnd(t *testing.T) {
	// Profile a two-hot-loop trace (the same shape the program below has).
	s := memtrace.NewPhasedStream(1,
		hotPhase("pp1", 100_000, 16*pp.KiB, 1),
		hotPhase("pp2", 100_000, 64*pp.KiB, 2),
	)
	periods, err := Profile(s, testCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(periods) == 0 {
		t.Fatal("no periods detected")
	}
	// Build the corresponding uninstrumented program: one phase per
	// trace phase, aligned in instruction space.
	prog := proc.Program{
		{Name: "pp1", Instr: 100_000, WSS: pp.MB(1), Reuse: pp.ReuseLow,
			AccessesPerInstr: 0.3, PrivateHitFrac: 0.8, FlopsPerInstr: 0.5},
		{Name: "pp2", Instr: 100_000, WSS: pp.MB(1), Reuse: pp.ReuseLow,
			AccessesPerInstr: 0.3, PrivateHitFrac: 0.8, FlopsPerInstr: 0.5},
	}
	out, err := Instrument(prog, periods, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, ph := range out {
		if ph.Declared {
			declared++
			if ph.WSS <= 0 {
				t.Fatal("declared phase without measured WSS")
			}
		}
	}
	if declared == 0 {
		t.Fatal("end-to-end instrumentation declared nothing")
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("instrumented program invalid: %v", err)
	}
}
