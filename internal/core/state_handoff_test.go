package core

import (
	"bytes"
	"errors"
	"testing"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// These tests pin the revival protocol at the core layer, without the
// persist/perf machinery on top: a governed run killed mid-schedule
// leaves as its checkpoint the state it exports at the kill; a fresh
// run of the same scenario re-executes to the kill, must export exactly
// that state, and then resumes on the same gate; the outcome must equal
// a run that was never interrupted. The two scenarios are the ones with
// the most derived runtime state at the kill: a breaker mid-probation
// (open window, pending probe) and a waitlist whose order rests on
// tickets preserved across re-denials (EnqueueAs).

// haltAt runs m until the virtual clock reaches killAt and leaves it
// halted there.
func haltAt(t *testing.T, m *machine.Machine, killAt sim.Duration) {
	t.Helper()
	eng := m.Engine()
	eng.After(killAt, eng.Halt)
	if _, err := m.Run(); !errors.Is(err, machine.ErrHalted) {
		t.Fatalf("halted run returned %v, want machine.ErrHalted", err)
	}
}

func canonicalBytes(t *testing.T, st State) []byte {
	t.Helper()
	b, err := st.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// handOff kills one instance of the scenario built by mk at killAt and
// takes its exported state as the checkpoint. It then re-executes a
// second instance to the kill, runs atKill on it (to prove the kill
// landed mid-scenario), requires its exported state to equal the
// checkpoint byte-for-byte, clears the halt and resumes the same gate to
// completion. It returns the resumed scheduler.
func handOff(t *testing.T, mk func() (*Scheduler, *machine.Machine), killAt sim.Duration, atKill func(live *Scheduler, checkpoint State)) *Scheduler {
	t.Helper()
	ks, km := mk()
	haltAt(t, km, killAt)
	checkpoint := ks.ExportState()

	s, m := mk()
	haltAt(t, m, killAt)
	atKill(s, checkpoint)
	if lb, cb := canonicalBytes(t, s.ExportState()), canonicalBytes(t, checkpoint); !bytes.Equal(lb, cb) {
		t.Fatalf("re-executed state at the kill differs from the checkpoint:\nlive       %s\ncheckpoint %s", lb, cb)
	}
	m.Engine().Resume()
	if _, err := m.Resume(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	return s
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

// TestStateHandoffMidProbationBreaker kills the quarantine lifecycle
// while the breaker is open and the probation window is still running:
// the checkpoint must carry the open breaker, and the resumed gate must
// run the remaining probation phase quarantined, fire the half-open
// probe at the same phase, and end with the same cumulative governor
// ledger as the uninterrupted run.
func TestStateHandoffMidProbationBreaker(t *testing.T) {
	d := phaseDuration(t)
	lies := []bool{true, true, true, false, false, false}
	cfg := quietGovernor()
	cfg.Strikes = 2
	cfg.Probation = d + d/2
	var ring *EventRing
	mk := func() (*Scheduler, *machine.Machine) {
		s, m := buildRobust(t, StrictPolicy{}, 0, 0)
		s.EnableGovernor(cfg)
		ring = NewEventRing(64)
		s.AddSink(ring)
		if _, err := m.AddProcess(multiPhaseProc("liar", lies)); err != nil {
			t.Fatal(err)
		}
		return s, m
	}

	sb, mb := mk()
	if _, err := mb.Run(); err != nil {
		t.Fatal(err)
	}
	wantGov, wantStats := sb.GovernorStats(), sb.Stats()
	if wantGov.Probes == 0 {
		t.Fatalf("baseline never probed the breaker (%+v)", wantGov)
	}
	// Calibrate the kill from the baseline's own log: half a probation
	// window past the trip is strictly inside it, whatever the phase
	// timing works out to.
	var tripAt sim.Duration = -1
	for _, e := range ring.Events() {
		if e.Kind == EventGovernorQuarantine {
			tripAt = e.At.DurationSince(0)
			break
		}
	}
	if tripAt < 0 {
		t.Fatal("baseline never tripped the breaker")
	}

	s := handOff(t, mk, tripAt+cfg.Probation/2, func(live *Scheduler, cp State) {
		if bs := live.BreakerState(0, live.clock()); bs != BreakerOpen {
			t.Fatalf("breaker %v at the kill, want open mid-probation", bs)
		}
		if gs := live.GovernorStats(); gs.Probes != 0 {
			t.Fatalf("probe already fired before the kill (%+v)", gs)
		}
		g := cp.Domains[0].Gov
		if g == nil || len(g.Breakers) == 0 || g.Breakers[0].State != BreakerOpen || g.Breakers[0].OpenedAt == 0 {
			t.Fatalf("checkpoint governor %+v, want process 0's breaker open with its opening time", g)
		}
	})
	if gs := s.GovernorStats(); gs != wantGov {
		t.Errorf("governor stats after handoff = %+v, want %+v", gs, wantGov)
	}
	if st := s.Stats(); st != wantStats {
		t.Errorf("stats after handoff = %+v, want %+v", st, wantStats)
	}
	if bs := s.BreakerState(0, s.clock()); bs != BreakerClosed {
		t.Errorf("breaker %v after the probe, want closed", bs)
	}
}

// TestStateHandoffPreservesWaitTicketOrder kills the waitlist-aging
// scenario between its two reservation probes: the aged 10 MB waiter has
// already been probed, re-denied, and re-enqueued under its original
// ticket (EnqueueAs), with a reservation pinning the queue. The
// checkpoint must hold that ticket ahead of the younger waiter's, and
// the resumed gate must reproduce the uninterrupted run's wake order —
// the aged waiter strictly before the younger one that would otherwise
// fit — and its full wait clock.
func TestStateHandoffPreservesWaitTicketOrder(t *testing.T) {
	cfg := quietGovernor()
	cfg.AgeThreshold = 1e-9
	var ring *EventRing
	mk := func() (*Scheduler, *machine.Machine) {
		s, m := buildRobust(t, StrictPolicy{}, 0, 0)
		s.EnableGovernor(cfg)
		ring = NewEventRing(64)
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
		return s, m
	}

	sb, mb := mk()
	if _, err := mb.Run(); err != nil {
		t.Fatal(err)
	}
	wantWakes, wantStats, wantGov := wakeOrder(ring), sb.Stats(), sb.GovernorStats()
	if len(wantWakes) != 2 {
		t.Fatalf("baseline woke %v, want big then late", wantWakes)
	}
	// Calibrate the kill between the two reservation probes: smallA's end
	// has probed and re-denied big (back on the queue under its t=0
	// ticket, reservation held), smallB's end has not yet.
	var resAt []sim.Duration
	for _, e := range ring.Events() {
		if e.Kind == EventGovernorReserve {
			resAt = append(resAt, e.At.DurationSince(0))
		}
	}
	if len(resAt) != 2 {
		t.Fatalf("baseline took %d reservations, want 2", len(resAt))
	}

	s := handOff(t, mk, (resAt[0]+resAt[1])/2, func(live *Scheduler, cp State) {
		if gs := live.GovernorStats(); gs.Reservations != 1 {
			t.Fatalf("reservations at the kill = %d, want exactly the first probe taken", gs.Reservations)
		}
		if n := live.Waitlisted(); n != 2 {
			t.Fatalf("%d waitlisted at the kill, want big (re-enqueued) and late", n)
		}
		var waiting []PeriodState
		for _, ps := range cp.Domains[0].Periods {
			if !ps.Admitted {
				waiting = append(waiting, ps)
			}
		}
		if len(waiting) != 2 {
			t.Fatalf("checkpoint holds %d waiting periods, want big and late", len(waiting))
		}
		first := waiting[0]
		if waiting[1].Ticket < first.Ticket {
			first = waiting[1]
		}
		if first.Proc != wantWakes[0] || first.EnqueuedAt != 0 {
			t.Fatalf("checkpoint's oldest ticket is process %d enqueued at %v, want process %d (woken first) at t=0",
				first.Proc, first.EnqueuedAt, wantWakes[0])
		}
	})
	// The resumed gate is the one that re-executed the prefix, so its
	// decision log spans the whole run.
	gotWakes := wakeOrder(ring)
	if len(gotWakes) != len(wantWakes) {
		t.Fatalf("handoff run woke %v, baseline woke %v", gotWakes, wantWakes)
	}
	for i := range wantWakes {
		if gotWakes[i] != wantWakes[i] {
			t.Fatalf("wake order after handoff %v, want %v", gotWakes, wantWakes)
		}
	}
	if st := s.Stats(); st != wantStats {
		t.Errorf("stats after handoff = %+v, want %+v", st, wantStats)
	}
	if gs := s.GovernorStats(); gs != wantGov {
		t.Errorf("governor stats after handoff = %+v, want %+v", gs, wantGov)
	}
}
