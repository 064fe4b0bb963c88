package core

import (
	"math"
	"strings"
	"testing"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
)

// build wires a scheduler and machine together under the given policy.
func build(t *testing.T, policy Policy) (*Scheduler, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.WakeLatency = 0
	cfg.OverheadAPIInstr = 0
	cfg.OverheadKernelInstr = 0
	s := New(policy, cfg.LLCCapacity)
	m := machine.New(cfg, s)
	bind(s, m)
	return s, m
}

// gate is the surface of both gate types that the tests drive.
type gate interface {
	machine.Gate
	SetWaker(Waker)
	SetClock(Clock)
	SetTimer(Timer)
	AddSink(EventSink)
	Stats() Stats
}

// bind wires g to m as perf.NewMachine does: m resumes g's threads,
// stamps its decisions and runs its timers.
func bind(g gate, m *machine.Machine) {
	g.SetWaker(m)
	g.SetClock(m.Now)
	g.SetTimer(m.Engine())
}

func declaredProc(name string, wss pp.Bytes, instr float64) proc.Spec {
	return proc.Spec{
		Name:    name,
		Threads: 1,
		Program: proc.Program{{
			Name:             "pp",
			Instr:            instr,
			WSS:              wss,
			Reuse:            pp.ReuseHigh,
			AccessesPerInstr: 0.3,
			PrivateHitFrac:   0.8,
			FlopsPerInstr:    0.5,
			Declared:         true,
		}},
	}
}

func TestTryScheduleAlgorithm1(t *testing.T) {
	s := New(StrictPolicy{}, pp.MB(15))
	d := pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(10), Reuse: pp.ReuseHigh}
	run, sg := s.TrySchedule(d)
	if !run || sg {
		t.Fatalf("fresh demand: run=%v safeguard=%v", run, sg)
	}
	s.rm.Increment(d)
	run, _ = s.TrySchedule(d) // 10 + 10 > 15
	if run {
		t.Fatal("strict admitted oversubscription")
	}
}

func TestTryScheduleSafeguard(t *testing.T) {
	s := New(StrictPolicy{}, pp.MB(15))
	huge := pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(100), Reuse: pp.ReuseHigh}
	run, sg := s.TrySchedule(huge)
	if !run || !sg {
		t.Fatalf("oversized demand on idle resource: run=%v safeguard=%v, want true,true", run, sg)
	}
	s.rm.Increment(pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(1), Reuse: pp.ReuseLow})
	run, _ = s.TrySchedule(huge)
	if run {
		t.Fatal("oversized demand admitted on busy resource")
	}
}

func TestStrictNeverExceedsCapacity(t *testing.T) {
	s, m := build(t, StrictPolicy{})
	// 10 processes of 4 MB each against a 15 MB LLC: at most 3 at a time.
	for i := 0; i < 10; i++ {
		if _, err := m.AddProcess(declaredProc("p", pp.MB(4), 1e7)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if peak := s.Resources().Peak(pp.ResourceLLC); peak > m.Config().LLCCapacity {
		t.Fatalf("strict peak load %v exceeds capacity %v", peak, m.Config().LLCCapacity)
	}
	st := s.Stats()
	if st.Begins != 10 || st.Ends != 10 {
		t.Fatalf("begins/ends = %d/%d, want 10/10", st.Begins, st.Ends)
	}
	if st.Denied == 0 {
		t.Fatal("no denials despite 40 MB of demand on 15 MB")
	}
	if s.Resources().Usage(pp.ResourceLLC) != 0 {
		t.Fatal("load not zero after all periods ended")
	}
	if s.Waitlisted() != 0 || s.ActivePeriods() != 0 {
		t.Fatal("registry not empty after run")
	}
}

func TestCompromiseAllowsBoundedOversubscription(t *testing.T) {
	s, m := build(t, NewCompromise())
	for i := 0; i < 10; i++ {
		if _, err := m.AddProcess(declaredProc("p", pp.MB(4), 1e7)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	peak := s.Resources().Peak(pp.ResourceLLC)
	capn := m.Config().LLCCapacity
	if peak <= capn {
		t.Fatalf("compromise peak %v never exceeded capacity — factor not applied", peak)
	}
	if float64(peak) > 2*float64(capn) {
		t.Fatalf("compromise peak %v exceeds 2x capacity %v", peak, capn)
	}
}

func TestDefaultPolicyAdmitsEverything(t *testing.T) {
	s, m := build(t, AlwaysPolicy{})
	for i := 0; i < 10; i++ {
		if _, err := m.AddProcess(declaredProc("p", pp.MB(4), 1e7)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Denied != 0 {
		t.Fatal("default policy denied a period")
	}
	if res.Counters.PPBlocks != 0 {
		t.Fatal("machine saw blocks under default policy")
	}
}

func TestStrictSerializesConflictingPeriods(t *testing.T) {
	// Two 10 MB periods cannot share a 15 MB LLC under strict: the run
	// must serialize them, taking ~2x one period's time, but each runs at
	// full residency.
	_, m := build(t, StrictPolicy{})
	for i := 0; i < 2; i++ {
		if _, err := m.AddProcess(declaredProc("p", pp.MB(10), 1e8)); err != nil {
			t.Fatal(err)
		}
	}
	resStrict, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	_, md := build(t, AlwaysPolicy{})
	for i := 0; i < 2; i++ {
		if _, err := md.AddProcess(declaredProc("p", pp.MB(10), 1e8)); err != nil {
			t.Fatal(err)
		}
	}
	resDefault, err := md.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Strict: serial but cache-efficient. Default: parallel but thrashing
	// (20 MB on 15 MB). Strict must move far less data to DRAM. (Total
	// DRAM *Joules* can still favor default here because 10 of 12 cores
	// idle under strict and background DIMM power integrates over the
	// longer serial runtime — the saturated-machine ordering is asserted
	// in TestSchedulerEndToEndEnergyOrdering.)
	if resStrict.Counters.DRAMAccesses >= resDefault.Counters.DRAMAccesses/4 {
		t.Fatalf("strict DRAM traffic %v not ≪ default %v",
			resStrict.Counters.DRAMAccesses, resDefault.Counters.DRAMAccesses)
	}
	// Serialization shows up as longer wall time under strict.
	if resStrict.Elapsed <= resDefault.Elapsed {
		t.Fatal("strict did not serialize the conflicting periods")
	}
}

func TestMultiThreadedPeriodSharedDemand(t *testing.T) {
	// A 4-thread process declaring a 10 MB phase registers 10 MB once,
	// not 40 MB: under strict it must be admitted (10 < 15).
	s, m := build(t, StrictPolicy{})
	spec := declaredProc("mt", pp.MB(10), 1e7)
	spec.Threads = 4
	if _, err := m.AddProcess(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Denied != 0 {
		t.Fatalf("shared demand denied (counted per thread?): %+v", st)
	}
	if st.Begins != 1 || st.Ends != 1 {
		t.Fatalf("period refcounting wrong: begins=%d ends=%d", st.Begins, st.Ends)
	}
	if peak := s.Resources().Peak(pp.ResourceLLC); peak != pp.MB(10) {
		t.Fatalf("peak = %v, want 10 MB counted once", peak)
	}
}

func TestWaitlistFIFOAdmission(t *testing.T) {
	// Saturate the LLC with one long period, then queue several small
	// ones; they must be admitted in arrival order when space frees.
	s, m := build(t, StrictPolicy{})
	if _, err := m.AddProcess(declaredProc("big", pp.MB(14), 5e7)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.AddProcess(declaredProc("small", pp.MB(3), 1e6)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Denied != 5 {
		t.Fatalf("denied = %d, want all 5 small periods waitlisted", st.Denied)
	}
	if st.Woken != 5 {
		t.Fatalf("woken = %d, want 5", st.Woken)
	}
	// The small periods were queued in process order; after the big one
	// ends, all 5 fit (15 MB against... 3*5=15 ≤ 15) and finish together,
	// so the overall finish order in the result follows process order.
	if len(res.Procs) != 6 {
		t.Fatal("missing process results")
	}
}

func TestTaskPoolParking(t *testing.T) {
	// A task-pool process denied once must have later periods parked even
	// if they would individually fit.
	s, m := build(t, StrictPolicy{})
	// Big occupies the LLC for a long time.
	if _, err := m.AddProcess(declaredProc("big", pp.MB(14), 1e8)); err != nil {
		t.Fatal(err)
	}
	pool := proc.Spec{
		Name:     "pool",
		Threads:  2,
		TaskPool: true,
		Program: proc.Program{
			{Name: "pp1", Instr: 1e6, WSS: pp.MB(4), Reuse: pp.ReuseHigh,
				AccessesPerInstr: 0.3, PrivateHitFrac: 0.8, FlopsPerInstr: 0.5, Declared: true},
			{Name: "pp2", Instr: 1e6, WSS: pp.KB(64), Reuse: pp.ReuseHigh,
				AccessesPerInstr: 0.3, PrivateHitFrac: 0.8, FlopsPerInstr: 0.5, Declared: true},
		},
	}
	if _, err := m.AddProcess(pool); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Denied == 0 {
		t.Fatal("pool period not denied")
	}
	if st.Ends != 3 {
		t.Fatalf("ends = %d, want 3 (big + 2 pool phases)", st.Ends)
	}
}

// TestRegistryEmptyAfterRun checks that a completed run leaves nothing
// registered: every period closed and no thread is left inside one.
func TestRegistryEmptyAfterRun(t *testing.T) {
	s, m := build(t, StrictPolicy{})
	if _, err := m.AddProcess(declaredProc("p", pp.MB(1), 1e6)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	d := s.ExportState().Domains[0]
	if len(d.Periods) != 0 || len(d.Inside) != 0 || len(d.Parked) != 0 {
		t.Fatalf("after the run: %d periods, %d threads inside, %d parked pools registered",
			len(d.Periods), len(d.Inside), len(d.Parked))
	}
}

// TestUnboundGateRefused pins the one gate configuration: a scheduler
// or domain set missing its waker, clock or timer panics on its first
// EnterPhase before it places or opens a period (its sink hears
// nothing), and on a fault, a recovery or a state export; a nil policy
// panics at construction. A fully bound gate admits.
func TestUnboundGateRefused(t *testing.T) {
	spec := declaredProc("p", pp.MB(1), 1e6)
	ph := &spec.Program[0]
	cfg := machine.DefaultConfig()
	gates := []struct {
		name string
		new  func() gate
	}{
		{"scheduler", func() gate { return New(StrictPolicy{}, cfg.LLCCapacity) }},
		{"one-domain", func() gate {
			d, _ := NewDomainSet(StrictPolicy{}, cfg.LLCCapacity, DomainConfig{Domains: 1})
			return d
		}},
		{"two-domains", func() gate {
			d, _ := NewDomainSet(StrictPolicy{}, cfg.LLCCapacity, DomainConfig{Domains: 2})
			return d
		}},
	}
	for _, gc := range gates {
		for _, missing := range []string{"bound", "SetWaker", "SetClock", "SetTimer"} {
			t.Run(gc.name+"/"+missing, func(t *testing.T) {
				g := gc.new()
				m := machine.New(cfg, g)
				if missing != "SetWaker" {
					g.SetWaker(m)
				}
				if missing != "SetClock" {
					g.SetClock(m.Now)
				}
				if missing != "SetTimer" {
					g.SetTimer(m.Engine())
				}
				if _, err := m.AddProcess(spec); err != nil {
					t.Fatal(err)
				}
				ring := NewEventRing(8)
				g.AddSink(ring)
				enter := func() (admitted bool, msg any) {
					defer func() { msg = recover() }()
					return g.EnterPhase(m.ThreadByID(0), 0, ph), nil
				}
				admitted, msg := enter()
				if missing == "bound" {
					if msg != nil || !admitted {
						t.Fatalf("bound gate: admitted %v, panic %v", admitted, msg)
					}
					return
				}
				if s, _ := msg.(string); !strings.Contains(s, "SetWaker, SetClock and SetTimer") {
					t.Fatalf("EnterPhase without %s: panic %v, want one naming the three setters", missing, msg)
				}
				if evs := ring.Events(); len(evs) != 0 {
					t.Fatalf("refused gate decided %v", evs)
				}
			})
		}
	}
	// The fault and recovery entry points and both state exports refuse
	// an unbound gate the same way, instead of dereferencing its nil
	// clock or timer: a two-domain set with recovery enabled and nothing
	// bound.
	unbound := func(t *testing.T) *DomainSet {
		d, err := NewDomainSet(StrictPolicy{}, cfg.LLCCapacity, DomainConfig{Domains: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.EnableRecovery(DefaultRecoveryConfig()); err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, ep := range []struct {
		name string
		call func(d *DomainSet)
	}{
		{"InjectCrash", func(d *DomainSet) { d.InjectCrash(0) }},
		{"InjectCapacityLoss", func(d *DomainSet) { d.InjectCapacityLoss(0, 1) }},
		{"InjectLedgerCorruption", func(d *DomainSet) { d.InjectLedgerCorruption(0, pp.MB(1)) }},
		{"RecoverDomain", func(d *DomainSet) { d.RecoverDomain(0) }},
		{"DomainSet.ExportState", func(d *DomainSet) { d.ExportState() }},
		{"Scheduler.ExportState", func(*DomainSet) { New(StrictPolicy{}, cfg.LLCCapacity).ExportState() }},
	} {
		t.Run("unbound/"+ep.name, func(t *testing.T) {
			d := unbound(t)
			defer func() {
				if s, _ := recover().(string); !strings.Contains(s, "SetWaker, SetClock and SetTimer") {
					t.Fatalf("%s on an unbound gate: panic %q, want one naming the three setters", ep.name, s)
				}
			}()
			ep.call(d)
		})
	}
	t.Run("nil-policy", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("New(nil, ...) built a scheduler")
			}
		}()
		New(nil, cfg.LLCCapacity)
	})
}

func TestSchedulerEndToEndEnergyOrdering(t *testing.T) {
	// The headline claim at unit scale, on a core-saturating mix: 24
	// high-reuse processes of 1.25 MB against 15 MB. Strict admits 12 at
	// a time (cores stay busy), default runs all 24 with the LLC
	// oversubscribed 2x. Strict must win DRAM energy, system energy, and
	// wall time — the Figure 7/8/9 mechanism end to end.
	run := func(p Policy) *machine.Result {
		_, m := build(t, p)
		for i := 0; i < 24; i++ {
			if _, err := m.AddProcess(declaredProc("p", pp.MB(1.25), 2e7)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	st := run(StrictPolicy{})
	co := run(NewCompromise())
	de := run(AlwaysPolicy{})
	if !(st.DRAMJ < de.DRAMJ) {
		t.Fatalf("strict DRAM %v !< default %v", st.DRAMJ, de.DRAMJ)
	}
	if !(st.SystemJ < de.SystemJ) {
		t.Fatalf("strict system %v !< default %v", st.SystemJ, de.SystemJ)
	}
	if !(st.Elapsed < de.Elapsed) {
		t.Fatalf("strict elapsed %v !< default %v", st.Elapsed, de.Elapsed)
	}
	// Compromise sits between the two on DRAM traffic.
	if !(st.Counters.DRAMAccesses <= co.Counters.DRAMAccesses*1.001 &&
		co.Counters.DRAMAccesses <= de.Counters.DRAMAccesses*1.001) {
		t.Fatalf("DRAM access ordering violated: strict %v, compromise %v, default %v",
			st.Counters.DRAMAccesses, co.Counters.DRAMAccesses, de.Counters.DRAMAccesses)
	}
	// And the flop totals agree (same work done).
	if math.Abs(st.Counters.Flops-de.Counters.Flops)/de.Counters.Flops > 1e-6 {
		t.Fatal("policies did different amounts of work")
	}
}
