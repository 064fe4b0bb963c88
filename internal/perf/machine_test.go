package perf

import (
	"errors"
	"testing"

	"rdasched/internal/core"
	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/telemetry/blame"
	"rdasched/internal/workloads"
)

// fig4Workload is n single-thread copies of Figure 4's dgemm kernel,
// 6.3 MB of high-reuse working set each on the 15 MB Table 1 LLC.
func fig4Workload(n int) proc.Workload {
	kernel := proc.Phase{
		Name: "dgemm", Instr: 1e7, WSS: pp.MB(6.3), Reuse: pp.ReuseHigh,
		AccessesPerInstr: 0.3, PrivateHitFrac: 0.85, StreamFrac: 0.05,
		FlopsPerInstr: 0.5, Declared: true,
	}
	spec := proc.Spec{Name: "p", Threads: 1, Program: proc.Program{kernel}}
	return proc.Workload{Name: "fig4", Procs: proc.Replicate(spec, n)}
}

// TestNewMachine runs a slice of BLAS-3 on the stack NewMachine builds:
// the gate sees its periods and leaves no LLC load behind. A nil policy
// builds no gate, and a configuration Validate refuses builds nothing.
func TestNewMachine(t *testing.T) {
	m, d, err := NewMachine(RunConfig{Machine: machine.DefaultConfig(), Policy: core.NewCompromise()})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("BLAS-3")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink for test time: one kernel instance per BLAS-3 kernel kind.
	w.Procs = w.Procs[:8]
	if err := m.AddWorkload(w); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SystemJ <= 0 {
		t.Fatal("no energy accumulated")
	}
	if d.Stats().Begins == 0 {
		t.Fatal("gate saw no periods")
	}
	for _, per := range d.DomainStats().PerDomain {
		if per.Load != 0 {
			t.Fatalf("domain %d: leftover load %v after run", per.Domain, per.Load)
		}
	}

	if _, d, err := NewMachine(RunConfig{Machine: machine.DefaultConfig()}); err != nil || d != nil {
		t.Fatalf("nil policy: gate %v, error %v; want no gate", d, err)
	}
	bad := RunConfig{Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{}, Domains: -1}
	if m, d, err := NewMachine(bad); !errors.Is(err, ErrInvalidRunConfig) || m != nil || d != nil {
		t.Fatalf("Domains -1: machine %v, gate %v, error %v; want ErrInvalidRunConfig", m, d, err)
	}
}

// TestNewMachineBindsClockAndTimer drives the stack with Figure 4's
// kernel: 4 × 6.3 MB on 15 MB under strict must deny, so a blame
// collector on the returned gate sees stamped waits, and a
// one-picosecond lease must fire and reclaim.
func TestNewMachineBindsClockAndTimer(t *testing.T) {
	run := func(edit func(*core.DomainSet)) (*machine.Machine, *core.DomainSet) {
		t.Helper()
		m, d, err := NewMachine(RunConfig{Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{}})
		if err != nil {
			t.Fatal(err)
		}
		edit(d)
		if err := m.AddWorkload(fig4Workload(4)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m, d
	}

	col := blame.NewCollector()
	m, d := run(func(d *core.DomainSet) { d.AddSink(col) })
	col.Finish(m.Now())
	rpt := col.Report()
	if d.Stats().Denied == 0 {
		t.Fatal("mix formed no waitlist")
	}
	if rpt.TotalBlamed <= 0 {
		t.Fatalf("blamed %v ps over %d denials: the gate has no clock", rpt.TotalBlamed, rpt.Denies)
	}

	_, d = run(func(d *core.DomainSet) { d.SetLease(1) })
	if d.Stats().Reclaimed == 0 {
		t.Fatal("a 1 ps lease reclaimed nothing: the gate has no timer")
	}
}

// TestRunFigure4Kernel runs three Figure 4 kernels under default and
// strict: 3 × 6.3 MB on 15 MB, so strict must serialize (pauses
// observed) and the serialized run moves far less data to DRAM.
func TestRunFigure4Kernel(t *testing.T) {
	w := fig4Workload(3)
	def, _, err := Run(w, RunConfig{Machine: machine.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	strict, _, err := Run(w, RunConfig{Machine: machine.DefaultConfig(), Policy: core.StrictPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Blocks == 0 {
		t.Fatal("strict policy paused nothing")
	}
	if def.Blocks != 0 {
		t.Fatal("default baseline paused threads")
	}
	if strict.DRAMAccesses >= def.DRAMAccesses {
		t.Fatalf("strict DRAM traffic %v not below default %v", strict.DRAMAccesses, def.DRAMAccesses)
	}
}
