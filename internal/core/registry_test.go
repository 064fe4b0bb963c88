package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// TestBeginEndAllocatesNothing pins the registry's steady state: with no
// sinks, metrics or journal attached, a begin/end pair of a repeated
// phase allocates nothing once the first period has been recycled —
// on a scheduler, and on a two-domain set, whose placement refills a
// scratch buffer.
func TestBeginEndAllocatesNothing(t *testing.T) {
	spec := declaredProc("p", pp.MB(1), 1e6)
	ph := &spec.Program[0]
	cfg := machine.DefaultConfig()
	for _, tc := range []struct {
		name string
		gate func() machine.Gate
	}{
		{"scheduler", func() machine.Gate { return New(StrictPolicy{}, cfg.LLCCapacity) }},
		{"two-domains", func() machine.Gate {
			return mustDomainSet(t, StrictPolicy{}, cfg.LLCCapacity, DomainConfig{Domains: 2})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.gate()
			m := machine.New(cfg, g)
			if _, err := m.AddProcess(spec); err != nil {
				t.Fatal(err)
			}
			th := m.ThreadByID(0)
			idx := 0
			pair := func() {
				if !g.EnterPhase(th, idx, ph) {
					t.Fatal("period denied on an idle gate")
				}
				g.ExitPhase(th, idx, ph)
				idx++
			}
			pair() // opens the period every later pair recycles
			if n := testing.AllocsPerRun(1000, pair); n != 0 {
				t.Fatalf("a begin/end pair allocates %v times, want 0", n)
			}
		})
	}
}

// leakyTimer is a Timer whose Cancel does nothing, so every callback
// armed on it can still fire — as a stray timer racing a close would.
type leakyTimer struct{ fired []func() }

func (lt *leakyTimer) After(_ sim.Duration, fn func()) *sim.Event {
	lt.fired = append(lt.fired, fn)
	return &sim.Event{}
}

func (lt *leakyTimer) Cancel(*sim.Event) {}

// TestStaleLeaseSparesRecycledPeriod closes a leased period, reopens its
// key on the recycled period object, and then fires the first lease: the
// callback must recognize a different admission and leave the live
// period alone, while the live period's own lease still reclaims it.
func TestStaleLeaseSparesRecycledPeriod(t *testing.T) {
	s, m := build(t, StrictPolicy{})
	lt := &leakyTimer{}
	s.SetTimer(lt)
	s.SetLease(sim.Millisecond)
	spec := declaredProc("p", pp.MB(1), 1e6)
	if _, err := m.AddProcess(spec); err != nil {
		t.Fatal(err)
	}
	th, ph := m.ThreadByID(0), &spec.Program[0]
	key := periodKey{procID: 0, phaseIdx: 0}
	s.EnterPhase(th, 0, ph)
	first := s.reg.get(key)
	s.ExitPhase(th, 0, ph)
	s.EnterPhase(th, 0, ph)
	if s.reg.get(key) != first || len(lt.fired) != 2 {
		t.Fatalf("reopened period recycled = %v, %d leases armed; want true, 2", s.reg.get(key) == first, len(lt.fired))
	}
	lt.fired[0]()
	if st := s.Stats(); st.Reclaimed != 0 || s.ActivePeriods() != 1 {
		t.Fatalf("stale lease reclaimed %d periods, %d left active; want 0, 1", st.Reclaimed, s.ActivePeriods())
	}
	lt.fired[1]()
	if st := s.Stats(); st.Reclaimed != 1 || s.ActivePeriods() != 0 {
		t.Fatalf("live lease reclaimed %d periods, %d left active; want 1, 0", st.Reclaimed, s.ActivePeriods())
	}
}

// countingGate counts the decisions a machine asks of its gate: every
// EnterPhase and ExitPhase call, the unit of perfbench's
// core.ns_per_decision.
type countingGate struct {
	machine.Gate
	decisions uint64
}

func (g *countingGate) EnterPhase(t *machine.Thread, phaseIdx int, ph *proc.Phase) bool {
	g.decisions++
	return g.Gate.EnterPhase(t, phaseIdx, ph)
}

func (g *countingGate) ExitPhase(t *machine.Thread, phaseIdx int, ph *proc.Phase) {
	g.decisions++
	g.Gate.ExitPhase(t, phaseIdx, ph)
}

// BenchmarkCoreBeginEnd times admission decisions in steady state: 16
// processes whose one declared phase repeats indefinitely, 24 MB of
// demand against the 15 MB LLC, so strict waitlists about a third of
// them and every end wakes a waiter. Past a warm-up, each engine event
// retires one phase — its end and the next repetition's begin — and
// the benchmark reports host ns and heap allocations per decision. The
// ns include the machine's work for the event that carries each
// decision; allocs/decision is the registry's steady state.
func BenchmarkCoreBeginEnd(b *testing.B) {
	for _, pol := range []Policy{StrictPolicy{}, NewCompromise()} {
		b.Run(pol.Name(), func(b *testing.B) {
			cfg := machine.DefaultConfig()
			s := New(pol, cfg.LLCCapacity)
			g := &countingGate{Gate: s}
			m := machine.New(cfg, g)
			s.SetWaker(m)
			s.SetClock(m.Now)
			s.SetTimer(m.Engine())
			for i := 0; i < 16; i++ {
				// Distinct lengths stagger the completions one per event.
				spec := declaredProc("p", pp.MB(1.5), 1e6+float64(i)*997)
				spec.Program[0].Repeat = math.MaxInt32
				if _, err := m.AddProcess(spec); err != nil {
					b.Fatal(err)
				}
			}
			eng := m.Engine()
			warm := 0
			eng.SetStepHook(func(sim.Time) {
				if warm++; warm == 4096 {
					eng.Halt()
				}
			})
			if _, err := m.Run(); !errors.Is(err, machine.ErrHalted) {
				b.Fatalf("warm-up run returned %v, want machine.ErrHalted", err)
			}
			eng.SetStepHook(nil)
			eng.Resume()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := g.decisions
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !eng.Step() {
					b.Fatal("engine drained")
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			decisions := float64(g.decisions - start)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/decisions, "ns/decision")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/decisions, "allocs/decision")
		})
	}
}

// TestImportRefusesHostileIDs hands importDomain states whose process,
// phase or thread IDs the machine could not have issued. Each must be
// refused with an error — before any of them indexes a registry or
// breaker slot, where a negative ID would panic and a huge one allocate
// a huge table.
func TestImportRefusesHostileIDs(t *testing.T) {
	cfg := machine.DefaultConfig()
	m := machine.New(cfg, nil)
	for _, threads := range []int{1, 2} { // process 0: thread 0; process 1: threads 1 and 2
		spec := declaredProc("p", pp.MB(1), 1e6)
		spec.Threads = threads
		if _, err := m.AddProcess(spec); err != nil {
			t.Fatal(err)
		}
	}
	dm := pp.Demand{Resource: pp.ResourceLLC, WorkingSet: pp.MB(1), Reuse: pp.ReuseHigh}
	gate := func() *Scheduler {
		s := New(StrictPolicy{}, cfg.LLCCapacity)
		s.EnableGovernor(quietGovernor())
		return s
	}
	valid := func() State {
		st := gate().ExportState()
		d := &st.Domains[0]
		d.Gov.Breakers = []BreakerSnap{{Proc: 1, State: BreakerOpen, Strikes: 2}}
		d.Usage[pp.ResourceLLC] = dm.WorkingSet
		d.Parked = []int{1}
		d.Inside = []InsideEntry{{Thread: 2, Proc: 1, Phase: 3}}
		d.Periods = []PeriodState{{ID: 1, Proc: 1, Phase: 3, Demands: []pp.Demand{dm}, Admitted: true, Refs: 1}}
		return st
	}
	// The unmodified state imports and re-exports byte for byte.
	st := valid()
	want, _ := st.Canonical()
	s := gate()
	if err := s.importDomain(st.Domains[0], m.ThreadByID); err != nil {
		t.Fatalf("valid state refused: %v", err)
	}
	back := s.ExportState()
	if got, _ := back.Canonical(); !bytes.Equal(got, want) {
		t.Fatalf("round trip changed the state:\n got %s\nwant %s", got, want)
	}

	huge := 1 << 40
	for name, mut := range map[string]func(d *DomainState){
		"parked-negative":     func(d *DomainState) { d.Parked = []int{-1} },
		"parked-huge":         func(d *DomainState) { d.Parked = []int{huge} },
		"reclaimed-neg-proc":  func(d *DomainState) { d.Reclaimed = []ProcPhase{{Proc: -1, Phase: 0}} },
		"reclaimed-neg-phase": func(d *DomainState) { d.Reclaimed = []ProcPhase{{Proc: 0, Phase: -1}} },
		"inside-neg-thread":   func(d *DomainState) { d.Inside[0].Thread = -1 },
		"inside-huge-thread":  func(d *DomainState) { d.Inside[0].Thread = huge },
		"inside-wrong-proc":   func(d *DomainState) { d.Inside[0].Proc = 0 },
		"inside-neg-proc":     func(d *DomainState) { d.Inside[0].Proc = -1 },
		"inside-neg-phase":    func(d *DomainState) { d.Inside[0].Phase = -1 },
		"period-neg-proc":     func(d *DomainState) { d.Periods[0].Proc = -1 },
		"period-huge-proc":    func(d *DomainState) { d.Periods[0].Proc = huge },
		"period-neg-phase":    func(d *DomainState) { d.Periods[0].Phase = -1 },
		"period-no-demand":    func(d *DomainState) { d.Periods[0].Demands = nil },
		"breaker-negative":    func(d *DomainState) { d.Gov.Breakers[0].Proc = -1 },
		"breaker-huge":        func(d *DomainState) { d.Gov.Breakers[0].Proc = huge },
		"period-twice": func(d *DomainState) {
			d.Periods = append(d.Periods, d.Periods[0])
			d.Periods[1].ID = 2
		},
	} {
		t.Run(name, func(t *testing.T) {
			st := valid()
			mut(&st.Domains[0])
			if err := gate().importDomain(st.Domains[0], m.ThreadByID); err == nil {
				t.Fatal("hostile state imported without error")
			}
		})
	}
}
