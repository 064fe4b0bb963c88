package rdasched_test

import (
	"errors"
	"strings"
	"testing"

	"rdasched"
)

// TestFacadeCheckpointRestore drives the crash-safety surface through
// the facade alone: checkpoint a run, kill it mid-schedule, Restore the
// directory, and resume to the same final metrics as an unkilled run.
func TestFacadeCheckpointRestore(t *testing.T) {
	kernel := rdasched.Phase{
		Name:             "kernel",
		Instr:            1e7,
		WSS:              rdasched.MB(6.3),
		Reuse:            rdasched.ReuseHigh,
		AccessesPerInstr: 0.3,
		PrivateHitFrac:   0.85,
		FlopsPerInstr:    0.5,
		Declared:         true,
	}
	var w rdasched.Workload
	w.Name = "revive"
	for i := 0; i < 6; i++ {
		w.Procs = append(w.Procs, rdasched.Spec{
			Name: "p", Threads: 1, Program: rdasched.Program{kernel},
		})
	}
	rc := rdasched.RunConfig{
		Machine:     rdasched.DefaultMachine(),
		Policy:      rdasched.StrictPolicy{},
		Repetitions: 1,
		Seed:        42,
	}
	base, _, err := rdasched.Run(w, rc)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if base.MaxWaitSec == 0 {
		t.Fatal("mix forms no waitlist; restore would be trivial")
	}

	dir := t.TempDir()
	killAt := rdasched.Duration(base.ElapsedSec / 2 * 1e12) // virtual picoseconds
	krc := rc
	krc.Faults = &rdasched.FaultPlan{KillAt: killAt}
	krc.Checkpoint = &rdasched.CheckpointConfig{Dir: dir, Every: killAt / 3}
	if _, _, err := rdasched.Run(w, krc); !errors.Is(err, rdasched.ErrHalted) {
		t.Fatalf("killed run returned %v, want ErrHalted", err)
	}

	res, err := rdasched.Restore(dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if res.Seq == 0 || res.Truncated {
		t.Fatalf("restored seq %d truncated=%v from a clean kill", res.Seq, res.Truncated)
	}
	rrc := rc
	rrc.Restore = res
	revived, _, err := rdasched.Run(w, rrc)
	if err != nil {
		t.Fatalf("revival: %v", err)
	}
	if revived.ElapsedSec != base.ElapsedSec || revived.MaxWaitSec != base.MaxWaitSec {
		t.Fatalf("revived run (%.6f s, wait %.6f) diverged from baseline (%.6f s, wait %.6f)",
			revived.ElapsedSec, revived.MaxWaitSec, base.ElapsedSec, base.MaxWaitSec)
	}
}

// TestFacadeFigure4 exercises the public facade end to end: describe a
// kernel the way the paper's Figure 4 does, run it under default and
// strict, and observe the admission-control effect.
func TestFacadeFigure4(t *testing.T) {
	kernel := rdasched.Phase{
		Name:             "dgemm",
		Instr:            1e7,
		WSS:              rdasched.MB(6.3),
		Reuse:            rdasched.ReuseHigh,
		AccessesPerInstr: 0.3,
		PrivateHitFrac:   0.85,
		StreamFrac:       0.05,
		FlopsPerInstr:    0.5,
		Declared:         true,
	}
	w := rdasched.Workload{
		Name: "fig4",
		Procs: []rdasched.Spec{
			{Name: "a", Threads: 1, Program: rdasched.Program{kernel}},
			{Name: "b", Threads: 1, Program: rdasched.Program{kernel}},
			{Name: "c", Threads: 1, Program: rdasched.Program{kernel}},
		},
	}

	def, _, err := rdasched.Run(w, rdasched.RunConfig{
		Machine: rdasched.DefaultMachine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	strict, _, err := rdasched.Run(w, rdasched.RunConfig{
		Machine: rdasched.DefaultMachine(),
		Policy:  rdasched.StrictPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 × 6.3 MB on 15 MB: strict must serialize (pauses observed), and
	// the serialized run moves far less data to DRAM.
	if strict.Blocks == 0 {
		t.Fatal("strict policy paused nothing")
	}
	if def.Blocks != 0 {
		t.Fatal("default baseline paused threads")
	}
	if strict.DRAMAccesses >= def.DRAMAccesses {
		t.Fatalf("strict DRAM traffic %v not below default %v",
			strict.DRAMAccesses, def.DRAMAccesses)
	}
}

func TestFacadeScheduledMachine(t *testing.T) {
	cfg := rdasched.DefaultMachine()
	m, s := rdasched.NewScheduledMachine(cfg, rdasched.NewCompromise())
	w, err := rdasched.WorkloadByName("BLAS-3")
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
	if s.Stats().Begins == 0 {
		t.Fatal("scheduler saw no periods")
	}
	if got := s.Resources().Usage(rdasched.ResourceLLC); got != 0 {
		t.Fatalf("leftover load %v after run", got)
	}
}

// TestFacadeScheduledMachineBindsClockAndTimer drives the hand-wired
// stack with Figure 4's kernel: 4 × 6.3 MB on 15 MB under strict must
// deny, so a blame collector on the returned scheduler sees stamped
// waits, and a one-picosecond lease must fire and reclaim.
func TestFacadeScheduledMachineBindsClockAndTimer(t *testing.T) {
	kernel := rdasched.Phase{
		Name:             "kernel",
		Instr:            1e7,
		WSS:              rdasched.MB(6.3),
		Reuse:            rdasched.ReuseHigh,
		AccessesPerInstr: 0.3,
		PrivateHitFrac:   0.85,
		StreamFrac:       0.05,
		FlopsPerInstr:    0.5,
		Declared:         true,
	}
	var w rdasched.Workload
	w.Name = "wired"
	for i := 0; i < 4; i++ {
		w.Procs = append(w.Procs, rdasched.Spec{
			Name: "p", Threads: 1, Program: rdasched.Program{kernel},
		})
	}
	run := func(edit func(*rdasched.Scheduler)) (*rdasched.Machine, *rdasched.Scheduler) {
		t.Helper()
		m, s := rdasched.NewScheduledMachine(rdasched.DefaultMachine(), rdasched.StrictPolicy{})
		edit(s)
		if err := m.AddWorkload(w); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m, s
	}

	col := rdasched.NewBlameCollector()
	m, s := run(func(s *rdasched.Scheduler) { s.AddSink(col) })
	col.Finish(m.Now())
	rpt := col.Report()
	if s.Stats().Denied == 0 {
		t.Fatal("mix formed no waitlist")
	}
	if rpt.TotalBlamed <= 0 {
		t.Fatalf("blamed %v ps over %d denials: the scheduler has no clock", rpt.TotalBlamed, rpt.Denies)
	}

	_, s = run(func(s *rdasched.Scheduler) { s.SetLease(1) })
	if s.Stats().Reclaimed == 0 {
		t.Fatal("a 1 ps lease reclaimed nothing: the scheduler has no timer")
	}
}

func TestFacadePolicyByName(t *testing.T) {
	for _, name := range []string{"default", "strict", "compromise"} {
		if _, err := rdasched.PolicyByName(name); err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
	}
	if _, err := rdasched.PolicyByName("nope"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestFacadeTable2(t *testing.T) {
	ws := rdasched.Table2()
	if len(ws) != 8 {
		t.Fatalf("Table2 = %d workloads", len(ws))
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rdasched.WorkloadByName("water_nsq"); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeChaos exercises the robustness surface: a faulted workload
// run with the lease watchdog and bounded waiting enabled terminates,
// and the robustness counters reach the public metrics.
func TestFacadeChaos(t *testing.T) {
	kernel := rdasched.Phase{
		Name:             "kernel",
		Instr:            1e7,
		WSS:              rdasched.MB(6.3),
		Reuse:            rdasched.ReuseHigh,
		AccessesPerInstr: 0.3,
		PrivateHitFrac:   0.85,
		StreamFrac:       0.05,
		FlopsPerInstr:    0.5,
		Declared:         true,
	}
	var w rdasched.Workload
	w.Name = "chaos"
	for i := 0; i < 6; i++ {
		w.Procs = append(w.Procs, rdasched.Spec{
			Name: "p", Threads: 1, Program: rdasched.Program{kernel},
		})
	}
	plan := rdasched.UniformFaults(0.5, rdasched.DefaultMachine().LLCCapacity)
	mean, _, err := rdasched.Run(w, rdasched.RunConfig{
		Machine:       rdasched.DefaultMachine(),
		Policy:        rdasched.StrictPolicy{},
		Faults:        &plan,
		Lease:         rdasched.Duration(200e9), // 200 ms
		AdmitDeadline: rdasched.Duration(100e9), // 100 ms
		Seed:          42,
	})
	if err != nil {
		t.Fatalf("faulted run did not terminate cleanly: %v", err)
	}
	if mean.ReclaimedLeases == 0 && mean.FallbackAdmissions == 0 {
		t.Fatal("50% fault rate exercised no robustness machinery")
	}
}

// TestFacadeDomains exercises the multi-domain surface: a skewed mix
// run at Domains=2 makes placement decisions that reach the public
// metrics, and the standalone DomainSet constructor splits capacity.
func TestFacadeDomains(t *testing.T) {
	kernel := rdasched.Phase{
		Name:             "kernel",
		Instr:            1e7,
		WSS:              rdasched.MB(6.3),
		Reuse:            rdasched.ReuseHigh,
		AccessesPerInstr: 0.3,
		PrivateHitFrac:   0.85,
		StreamFrac:       0.05,
		FlopsPerInstr:    0.5,
		Declared:         true,
	}
	var w rdasched.Workload
	w.Name = "domains"
	for i := 0; i < 6; i++ {
		w.Procs = append(w.Procs, rdasched.Spec{
			Name: "p", Threads: 1, Program: rdasched.Program{kernel},
		})
	}
	mean, _, err := rdasched.Run(w, rdasched.RunConfig{
		Machine: rdasched.DefaultMachine(),
		Policy:  rdasched.StrictPolicy{},
		Domains: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mean.DomainPlacements != 6 {
		t.Fatalf("placements = %.0f, want 6 (one per declared period)", mean.DomainPlacements)
	}

	d, err := rdasched.NewDomainSet(rdasched.StrictPolicy{}, rdasched.MB(15),
		rdasched.DefaultDomainSetConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumDomains() != 3 {
		t.Fatalf("NumDomains = %d, want 3", d.NumDomains())
	}
	ds := d.DomainStats()
	var total rdasched.Bytes
	for _, per := range ds.PerDomain {
		total += per.Capacity
	}
	if total != rdasched.MB(15) {
		t.Fatalf("per-domain capacities sum to %v, want the whole LLC", total)
	}
}

// TestFacadeBlame exercises the observability surface: a contended run
// with blame attribution and SLO evaluation enabled yields a report
// that satisfies the conservation invariant and renders as HTML.
func TestFacadeBlame(t *testing.T) {
	kernel := rdasched.Phase{
		Name:             "kernel",
		Instr:            1e7,
		WSS:              rdasched.MB(6.3),
		Reuse:            rdasched.ReuseHigh,
		AccessesPerInstr: 0.3,
		PrivateHitFrac:   0.85,
		StreamFrac:       0.05,
		FlopsPerInstr:    0.5,
		Declared:         true,
	}
	var w rdasched.Workload
	w.Name = "blame"
	for i := 0; i < 4; i++ {
		w.Procs = append(w.Procs, rdasched.Spec{
			Name: "p", Threads: 1, Program: rdasched.Program{kernel},
		})
	}
	slo := rdasched.DefaultSLOConfig()
	mean, _, err := rdasched.Run(w, rdasched.RunConfig{
		Machine: rdasched.DefaultMachine(),
		Policy:  rdasched.StrictPolicy{},
		Blame:   true,
		SLO:     &slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mean.Blame == nil {
		t.Fatal("no blame report collected")
	}
	if err := mean.Blame.Check(); err != nil {
		t.Fatalf("conservation violated: %v", err)
	}
	// 4 × 6.3 MB on 15 MB under strict: someone must have been blamed.
	if mean.Blame.Denies == 0 || mean.Blame.TotalBlamed == 0 {
		t.Fatalf("contended run attributed nothing: %+v", mean.Blame)
	}
	if mean.SLO == nil || mean.SLO.Admissions == 0 {
		t.Fatal("SLO monitor recorded no admissions")
	}
	var sb strings.Builder
	meta := rdasched.ObsReportMeta{Workload: w.Name, Policy: "strict", Procs: []string{"p", "p", "p", "p"}}
	if err := rdasched.WriteObservabilityHTML(&sb, meta, mean.Blame, mean.SLO); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `id="rda-data"`) {
		t.Fatal("HTML report is missing the embedded data payload")
	}
}

func TestFacadeSentinels(t *testing.T) {
	_, s := rdasched.NewScheduledMachine(rdasched.DefaultMachine(), rdasched.StrictPolicy{})
	bad := rdasched.Demand{Resource: rdasched.ResourceLLC, WorkingSet: 0, Reuse: rdasched.ReuseLow}
	if err := s.CheckDemand(bad); !errors.Is(err, rdasched.ErrInvalidDemand) {
		t.Fatalf("zero demand: %v, want ErrInvalidDemand", err)
	}
	huge := rdasched.Demand{Resource: rdasched.ResourceLLC, WorkingSet: rdasched.MB(100), Reuse: rdasched.ReuseLow}
	if err := s.CheckDemand(huge); !errors.Is(err, rdasched.ErrOversizedDemand) {
		t.Fatalf("100 MB demand: %v, want ErrOversizedDemand", err)
	}
	if err := s.Resources().Decrement(huge); !errors.Is(err, rdasched.ErrLoadUnderflow) {
		t.Fatalf("decrement on empty table: %v, want ErrLoadUnderflow", err)
	}
	w, err := rdasched.WorkloadByName("water_nsq")
	if err != nil {
		t.Fatal(err)
	}
	metricsOfBaseline := rdasched.RunConfig{Machine: rdasched.DefaultMachine(), Telemetry: true}
	if _, _, err := rdasched.Run(w, metricsOfBaseline); !errors.Is(err, rdasched.ErrInvalidRunConfig) {
		t.Fatalf("telemetry without a policy: %v, want ErrInvalidRunConfig", err)
	}
}

func TestFacadeDemand(t *testing.T) {
	d := rdasched.Demand{
		Resource:   rdasched.ResourceLLC,
		WorkingSet: rdasched.MB(6.3),
		Reuse:      rdasched.ReuseHigh,
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.String() == "" {
		t.Fatal("empty demand string")
	}
}
