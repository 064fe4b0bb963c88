package core

import (
	"errors"
	"testing"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// These tests pin the export→import contract at the core layer, without
// the persist/perf machinery on top: halt a governed run mid-schedule,
// move the scheduler's exported state into a freshly built scheduler on
// the same machine, resume, and require the outcome byte-for-byte equal
// to a run that was never interrupted. The two scenarios are the ones
// with the most derived runtime state to lose: a breaker mid-probation
// (open window, pending probe) and a waitlist whose order rests on
// tickets preserved across re-denials (EnqueueAs).

// handOff halts the machine at killAt, exports the live scheduler's
// state, detaches it, and imports the state into a fresh scheduler
// configured by mk — the core-layer miniature of the perf revival
// protocol. It returns the replacement scheduler after the resumed run
// completes.
func handOff(t *testing.T, m *machine.Machine, s *Scheduler, killAt sim.Duration, atKill func(*Scheduler), mk func() *Scheduler) *Scheduler {
	t.Helper()
	eng := m.Engine()
	eng.After(killAt, eng.Halt)
	if _, err := m.Run(); !errors.Is(err, machine.ErrHalted) {
		t.Fatalf("halted run returned %v, want machine.ErrHalted", err)
	}
	atKill(s) // prove the kill landed mid-scenario, not after it resolved
	st := s.ExportState()
	s.Detach()
	s2 := mk()
	if err := s2.importDomain(st.Domains[0], m.ThreadByID); err != nil {
		t.Fatalf("import: %v", err)
	}
	m.SetGate(s2)
	eng.Resume()
	if _, err := m.Resume(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return s2
}

// wakeOrder extracts the EventWake process IDs from a decision log.
func wakeOrder(ring *EventRing) []int {
	var ids []int
	for _, e := range ring.Events() {
		if e.Kind == EventWake {
			ids = append(ids, e.Proc)
		}
	}
	return ids
}

// TestStateHandoffMidProbationBreaker interrupts the quarantine
// lifecycle while the breaker is open and the probation window is still
// running: the imported scheduler must carry the open breaker, run the
// remaining probation phase quarantined, fire the half-open probe at the
// same phase, and end with the same cumulative governor ledger as the
// uninterrupted run.
func TestStateHandoffMidProbationBreaker(t *testing.T) {
	d := phaseDuration(t)
	lies := []bool{true, true, true, false, false, false}
	setup := func(t *testing.T) (*Scheduler, *machine.Machine, GovernorConfig, *EventRing) {
		t.Helper()
		s, m := buildRobust(t, StrictPolicy{}, 0, 0)
		cfg := quietGovernor()
		cfg.Strikes = 2
		cfg.Probation = d + d/2
		s.EnableGovernor(cfg)
		ring := NewEventRing(64)
		s.AddSink(ring)
		if _, err := m.AddProcess(multiPhaseProc("liar", lies)); err != nil {
			t.Fatal(err)
		}
		return s, m, cfg, ring
	}

	sb, mb, _, ringB := setup(t)
	if _, err := mb.Run(); err != nil {
		t.Fatal(err)
	}
	wantGov, wantStats := sb.GovernorStats(), sb.Stats()
	// Calibrate the kill from the baseline's own log: half a probation
	// window past the trip is strictly inside it, whatever the phase
	// timing works out to.
	var tripAt sim.Duration = -1
	for _, e := range ringB.Events() {
		if e.Kind == EventGovernorQuarantine {
			tripAt = e.At.DurationSince(0)
			break
		}
	}
	if tripAt < 0 {
		t.Fatal("baseline never tripped the breaker")
	}

	s, m, cfg, _ := setup(t)
	s2 := handOff(t, m, s, tripAt+cfg.Probation/2, func(live *Scheduler) {
		if bs := live.BreakerState(0, m.Now()); bs != BreakerOpen {
			t.Fatalf("breaker %v at the kill, want open mid-probation", bs)
		}
		if gs := live.GovernorStats(); gs.Probes != 0 {
			t.Fatalf("probe already fired before the kill (%+v)", gs)
		}
	}, func() *Scheduler {
		n := New(StrictPolicy{}, m.Config().LLCCapacity)
		n.SetWaker(m)
		n.SetTimer(m.Engine())
		n.SetClock(m.Now)
		n.EnableGovernor(cfg)
		return n
	})
	if gs := s2.GovernorStats(); gs != wantGov {
		t.Errorf("governor stats after handoff = %+v, want %+v", gs, wantGov)
	}
	if st := s2.Stats(); st != wantStats {
		t.Errorf("stats after handoff = %+v, want %+v", st, wantStats)
	}
	if bs := s2.BreakerState(0, m.Now()); bs != BreakerClosed {
		t.Errorf("breaker %v after the probe, want closed", bs)
	}
}

// TestStateHandoffPreservesWaitTicketOrder interrupts the waitlist-aging
// scenario between its two reservation probes: the aged 10 MB waiter has
// already been probed, re-denied, and re-enqueued under its original
// ticket (EnqueueAs), with a reservation pinning the queue. The imported
// scheduler must reproduce the uninterrupted run's wake order — the aged
// waiter strictly before the younger one that would otherwise fit — and
// its full wait clock.
func TestStateHandoffPreservesWaitTicketOrder(t *testing.T) {
	setup := func(t *testing.T) (*Scheduler, *machine.Machine, GovernorConfig, *EventRing) {
		t.Helper()
		s, m := buildRobust(t, StrictPolicy{}, 0, 0)
		cfg := quietGovernor()
		cfg.AgeThreshold = 1e-9
		s.EnableGovernor(cfg)
		ring := NewEventRing(64)
		s.AddSink(ring)
		for _, spec := range []struct {
			name  string
			wss   pp.Bytes
			instr float64
		}{
			{"hog", pp.MB(8), 1e8},
			{"big", pp.MB(10), 1e6},
			{"smallA", pp.MB(3), 4e7},
			{"smallB", pp.MB(3), 6e7},
			{"late", pp.MB(3), 1e6},
		} {
			if _, err := m.AddProcess(declaredProc(spec.name, spec.wss, spec.instr)); err != nil {
				t.Fatal(err)
			}
		}
		return s, m, cfg, ring
	}

	sb, mb, _, ringB := setup(t)
	if _, err := mb.Run(); err != nil {
		t.Fatal(err)
	}
	wantWakes, wantStats, wantGov := wakeOrder(ringB), sb.Stats(), sb.GovernorStats()
	if len(wantWakes) != 2 {
		t.Fatalf("baseline woke %v, want big then late", wantWakes)
	}
	// Calibrate the kill between the two reservation probes: smallA's end
	// has probed and re-denied big (back on the queue under its t=0
	// ticket, reservation held), smallB's end has not yet.
	var resAt []sim.Duration
	for _, e := range ringB.Events() {
		if e.Kind == EventGovernorReserve {
			resAt = append(resAt, e.At.DurationSince(0))
		}
	}
	if len(resAt) != 2 {
		t.Fatalf("baseline took %d reservations, want 2", len(resAt))
	}

	s, m, cfg, ring := setup(t)
	var ring2 *EventRing
	s2 := handOff(t, m, s, (resAt[0]+resAt[1])/2, func(live *Scheduler) {
		if gs := live.GovernorStats(); gs.Reservations != 1 {
			t.Fatalf("reservations at the kill = %d, want exactly the first probe taken", gs.Reservations)
		}
		if n := live.Waitlisted(); n != 2 {
			t.Fatalf("%d waitlisted at the kill, want big (re-enqueued) and late", n)
		}
	}, func() *Scheduler {
		n := New(StrictPolicy{}, m.Config().LLCCapacity)
		n.SetWaker(m)
		n.SetTimer(m.Engine())
		n.SetClock(m.Now)
		n.EnableGovernor(cfg)
		ring2 = NewEventRing(64)
		n.AddSink(ring2)
		return n
	})
	// The decision log spans both schedulers: wakes before the handoff
	// live in the detached one's ring, the rest in the import's.
	gotWakes := append(wakeOrder(ring), wakeOrder(ring2)...)
	if len(gotWakes) != len(wantWakes) {
		t.Fatalf("handoff run woke %v, baseline woke %v", gotWakes, wantWakes)
	}
	for i := range wantWakes {
		if gotWakes[i] != wantWakes[i] {
			t.Fatalf("wake order after handoff %v, want %v", gotWakes, wantWakes)
		}
	}
	if st := s2.Stats(); st != wantStats {
		t.Errorf("stats after handoff = %+v, want %+v", st, wantStats)
	}
	if gs := s2.GovernorStats(); gs != wantGov {
		t.Errorf("governor stats after handoff = %+v, want %+v", gs, wantGov)
	}
}
