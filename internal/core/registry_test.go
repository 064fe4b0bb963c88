package core

import (
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
// metrics or journal attached, a begin/end pass over a repeated phase
// allocates nothing once the first periods have been recycled — on a
// scheduler, on a two-domain set, whose placement refills a scratch
// buffer, and on a strict scheduler where a second process's period is
// denied and then woken by the first one's end, which refills the wake
// scan's scratch slice. The last row runs that deny→wake pass with a
// blame sink subscribed, so every denial also refills and sorts the
// blocker snapshot.
func TestBeginEndAllocatesNothing(t *testing.T) {
	cfg := machine.DefaultConfig()
	newScheduler := func() gate { return New(StrictPolicy{}, cfg.LLCCapacity) }
	withBlameSink := func() gate {
		g := newScheduler()
		g.AddSink(nopBlameSink{})
		return g
	}
	for _, tc := range []struct {
		name  string
		gate  func() gate
		procs int      // every pass, each enters in turn, then each ends
		wss   pp.Bytes // per process: two 10 MB periods do not fit 15 MB
	}{
		{"scheduler", newScheduler, 1, pp.MB(1)},
		{"two-domains", func() gate {
			return mustDomainSet(t, StrictPolicy{}, cfg.LLCCapacity, DomainConfig{Domains: 2})
		}, 1, pp.MB(1)},
		{"strict-deny-wake", newScheduler, 2, pp.MB(10)},
		{"strict-deny-wake-blame", withBlameSink, 2, pp.MB(10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := declaredProc("p", tc.wss, 1e6)
			ph := &spec.Program[0]
			g := tc.gate()
			m := machine.New(cfg, g)
			bind(g, m)
			// The gate is driven by hand, so no thread blocks in the machine
			// and a woken one has nothing to resume.
			g.SetWaker(handWaker{})
			var ths []*machine.Thread
			for i := 0; i < tc.procs; i++ {
				if _, err := m.AddProcess(spec); err != nil {
					t.Fatal(err)
				}
				ths = append(ths, m.ThreadByID(i))
			}
			idx := 0
			pass := func() {
				for i, th := range ths {
					if admitted := g.EnterPhase(th, idx, ph); admitted != (i == 0) {
						t.Fatalf("pass %d: process %d admitted = %v", idx, i, admitted)
					}
				}
				for _, th := range ths {
					g.ExitPhase(th, idx, ph)
				}
				idx++
			}
			pass() // opens the periods every later pass recycles
			if n := testing.AllocsPerRun(1000, pass); n != 0 {
				t.Fatalf("a begin/end pass allocates %v times, want 0", n)
			}
			if st, waits := g.Stats(), uint64(idx*(tc.procs-1)); st.Denied != waits || st.Woken != waits {
				t.Fatalf("%d passes denied %d and woke %d periods, want %d each", idx, st.Denied, st.Woken, waits)
			}
		})
	}
}

// nopBlameSink takes every event and blocker snapshot and keeps none.
type nopBlameSink struct{}

func (nopBlameSink) Record(Event)                {}
func (nopBlameSink) RecordDeny(Event, []Blocker) {}

// handWaker resumes nothing, for tests that call a gate's EnterPhase and
// ExitPhase themselves instead of running the machine.
type handWaker struct{}

func (handWaker) Unblock(*machine.Thread) {}

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

// BenchmarkCoreBeginEnd times admission decisions in steady state. In
// the strict and compromise cases 16 processes whose one declared phase
// repeats indefinitely demand 24 MB against the 15 MB LLC, so strict
// waitlists about a third of them and every end wakes a waiter; in
// one-thread, Fig 11's shape, one process with one thread opens and
// closes its period at every event. Past a warm-up, each engine event
// retires one phase — its end and the next repetition's begin — and
// the benchmark reports host ns and heap allocations per decision. The
// ns include the machine's work for the event that carries each
// decision; allocs/decision is the registry's steady state.
func BenchmarkCoreBeginEnd(b *testing.B) {
	for _, tc := range []struct {
		name  string
		pol   Policy
		procs int
	}{
		{"strict", StrictPolicy{}, 16},
		{"compromise", NewCompromise(), 16},
		{"one-thread", StrictPolicy{}, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := machine.DefaultConfig()
			s := New(tc.pol, cfg.LLCCapacity)
			g := &countingGate{Gate: s}
			m := machine.New(cfg, g)
			s.SetWaker(m)
			s.SetClock(m.Now)
			s.SetTimer(m.Engine())
			for i := 0; i < tc.procs; i++ {
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
