package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"rdasched/internal/faults"
	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// quietGovernor returns a config with every mechanism disabled, so a
// test can switch on exactly the one under study: the ladder needs
// WaitHigh/HotEvents/depths, the breaker needs Strikes to be reachable,
// aging needs AgeThreshold.
func quietGovernor() GovernorConfig {
	return GovernorConfig{
		DegradeDepth:     1 << 20,
		ShedDepth:        1 << 20,
		WaitHigh:         0, // disables the stalled-head signal
		HotEvents:        0, // disables the fault-rate signal
		Window:           10 * sim.Millisecond,
		DegradeHold:      2 * sim.Millisecond,
		RecoverHold:      5 * sim.Millisecond,
		LeaseTighten:     0,
		Strikes:          1 << 20, // breaker never trips
		MisdeclareFactor: 2,
		Probation:        10 * sim.Millisecond,
		AgeThreshold:     0, // aging off
	}
}

// multiPhaseProc builds a sequential program of identical 2 MB declared
// phases; phases flagged in lies declare 8 MB instead (a 4x
// misdeclaration, a strike at MisdeclareFactor 2). All phases have the
// same instruction count, so each takes the same virtual time whether
// tracked, quarantined, or lying — the breaker's clock can be derived
// from a calibration run.
func multiPhaseProc(name string, lies []bool) proc.Spec {
	var prog proc.Program
	for i, lie := range lies {
		ph := proc.Phase{
			Name: fmt.Sprintf("pp%d", i), Instr: 1e7, WSS: pp.MB(2),
			Reuse: pp.ReuseHigh, AccessesPerInstr: 0.3, PrivateHitFrac: 0.8,
			FlopsPerInstr: 0.5, Declared: true,
		}
		if lie {
			ph.DeclaredWSS = pp.MB(8)
		}
		prog = append(prog, ph)
	}
	return proc.Spec{Name: name, Threads: 1, Program: prog}
}

// phaseDuration measures one truthful phase's virtual duration by
// calibration: the simulator is deterministic, so a 6-phase truthful run
// of the same program takes exactly 6 equal phases.
func phaseDuration(t *testing.T) sim.Duration {
	t.Helper()
	_, m := build(t, StrictPolicy{})
	if _, err := m.AddProcess(multiPhaseProc("cal", make([]bool, 6))); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Elapsed / 6
}

// TestQuarantineLifecycle walks the breaker through its full state
// machine on a six-phase process: two lying phases trip it at K=2 (the
// tripping period itself runs quarantined), the next phase runs as
// undeclared baseline during probation, and the first phase after the
// probation window is a half-open probe — a truthful one closes the
// breaker, a lying one re-trips it.
func TestQuarantineLifecycle(t *testing.T) {
	d := phaseDuration(t)
	run := func(t *testing.T, lies []bool) (*Scheduler, *machine.Machine, *machine.Process) {
		t.Helper()
		s, m := buildRobust(t, StrictPolicy{}, 0, 0)
		cfg := quietGovernor()
		cfg.Strikes = 2
		cfg.Probation = d + d/2 // between one and two phases after the trip
		s.EnableGovernor(cfg)
		s.EnableLog(64)
		p, err := m.AddProcess(multiPhaseProc("liar", lies))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return s, m, p
	}
	countEvents := func(s *Scheduler, kind EventKind) int {
		events, _ := s.Events()
		n := 0
		for _, e := range events {
			if e.Kind == kind {
				n++
			}
		}
		return n
	}

	t.Run("trip-probation-restore", func(t *testing.T) {
		// ph0 lie: strike 1. ph1 lie: strike 2, trip — quarantined.
		// ph2: inside probation — quarantined. ph3 truthful: probation
		// elapsed, half-open probe — clean, restored. ph4, ph5: normal.
		s, m, p := run(t, []bool{true, true, true, false, false, false})
		gs := s.GovernorStats()
		if gs.Strikes != 2 || gs.Quarantines != 1 {
			t.Errorf("strikes/quarantines = %d/%d, want 2/1", gs.Strikes, gs.Quarantines)
		}
		if gs.QuarantinedAdmits != 2 {
			t.Errorf("quarantined admits = %d, want 2 (the tripping period and the probation one)", gs.QuarantinedAdmits)
		}
		if gs.Probes != 1 || gs.Restores != 1 {
			t.Errorf("probes/restores = %d/%d, want 1/1", gs.Probes, gs.Restores)
		}
		if st := s.BreakerState(p.ID(), m.Now()); st != BreakerClosed {
			t.Errorf("breaker %v after a clean probe, want closed", st)
		}
		if n := countEvents(s, EventGovernorQuarantine); n != 2 {
			t.Errorf("quarantine events = %d, want 2", n)
		}
		if n := countEvents(s, EventGovernorRestore); n != 1 {
			t.Errorf("restore events = %d, want 1", n)
		}
		st := s.Stats()
		if st.Begins != 6 || st.Ends != 6 {
			t.Errorf("begins/ends = %d/%d, want 6/6", st.Begins, st.Ends)
		}
		// Quarantined periods are admitted untracked: only ph0's lying 8 MB
		// declaration (admitted normally, strike 1) was ever charged.
		if pk := s.Resources().Peak(pp.ResourceLLC); pk != pp.MB(8) {
			t.Errorf("peak load %v, want only ph0's declared 8 MB charged", pk)
		}
		if u := s.Resources().Usage(pp.ResourceLLC); u != 0 {
			t.Errorf("load %v after run, want 0", u)
		}
	})

	t.Run("lying-probe-retrips", func(t *testing.T) {
		// ph3's probe lies: the breaker re-trips for a second probation;
		// ph5 is the second probe and restores.
		s, m, p := run(t, []bool{true, true, true, true, true, false})
		gs := s.GovernorStats()
		if gs.Quarantines != 2 {
			t.Errorf("quarantines = %d, want 2 (trip + half-open re-trip)", gs.Quarantines)
		}
		if gs.Probes != 2 || gs.Restores != 1 {
			t.Errorf("probes/restores = %d/%d, want 2/1", gs.Probes, gs.Restores)
		}
		if gs.QuarantinedAdmits != 4 {
			t.Errorf("quarantined admits = %d, want 4", gs.QuarantinedAdmits)
		}
		if st := s.BreakerState(p.ID(), m.Now()); st != BreakerClosed {
			t.Errorf("breaker %v after the second probe, want closed", st)
		}
	})
}

// TestGovernorHysteresisDegradeRecover pins the ladder's timing: a
// stalled waitlist head must persist for DegradeHold before the policy
// degrades (no instant flapping), the degraded predicate then admits the
// stalled period, and sustained calm for RecoverHold steps the ladder
// back to the base policy.
func TestGovernorHysteresisDegradeRecover(t *testing.T) {
	s, m := buildRobust(t, StrictPolicy{}, 0, 0)
	cfg := quietGovernor()
	cfg.WaitHigh = 1 * sim.Millisecond
	cfg.DegradeHold = 2 * sim.Millisecond
	cfg.RecoverHold = 5 * sim.Millisecond
	cfg.Window = 3 * sim.Millisecond
	s.EnableGovernor(cfg)
	s.EnableLog(64)
	// The occupant leaks its 14 MB registration (no lease here), so the
	// victim can never be admitted under Strict — only the ladder's step
	// to Compromise (14+14+1 = 29 <= 30) unblocks it. The background
	// process keeps the engine alive after the victim finishes so the
	// recovery tick has a chance to fire.
	if _, err := m.AddProcess(leakyProc("occupant", pp.MB(14), 1e6)); err != nil {
		t.Fatal(err)
	}
	bg := declaredProc("background", pp.MB(1), 1e8)
	if _, err := m.AddProcess(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("victim", pp.MB(14), 3e7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("governed run stalled: %v", err)
	}
	gs := s.GovernorStats()
	if gs.Degradations != 1 {
		t.Fatalf("degradations = %d, want exactly 1", gs.Degradations)
	}
	if gs.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1 (calm after the victim finished)", gs.Recoveries)
	}
	if lvl, ok := s.Governor(); !ok || lvl != GovNormal {
		t.Fatalf("final level %v (attached=%v), want normal", lvl, ok)
	}
	if gs.Tightened != 0 {
		t.Fatalf("tightened = %d leases with the watchdog disabled, want 0", gs.Tightened)
	}
	st := s.Stats()
	if st.Woken != 1 || st.Fallbacks != 0 {
		t.Fatalf("woken/fallbacks = %d/%d, want 1/0 (the ladder, not the deadline, admitted the victim)", st.Woken, st.Fallbacks)
	}
	// The hysteresis floor: the victim cannot have been admitted before
	// the head stall crossed WaitHigh and then persisted for DegradeHold.
	if min := cfg.WaitHigh + cfg.DegradeHold; st.MaxWait < min {
		t.Fatalf("max wait %v shorter than the %v hysteresis floor — the ladder stepped instantly", st.MaxWait, min)
	}
	if st.MaxWait > 20*sim.Millisecond {
		t.Fatalf("max wait %v: the ladder never admitted the victim", st.MaxWait)
	}
	events, _ := s.Events()
	var degrade, recover bool
	for _, e := range events {
		switch e.Kind {
		case EventGovernorDegrade:
			degrade = true
			if e.Proc != -1 || e.Phase != int(GovDegraded) {
				t.Errorf("degrade event proc/phase = %d/%d, want -1/%d", e.Proc, e.Phase, int(GovDegraded))
			}
		case EventGovernorRecover:
			recover = true
			if e.Proc != -1 || e.Phase != int(GovNormal) {
				t.Errorf("recover event proc/phase = %d/%d, want -1/%d", e.Proc, e.Phase, int(GovNormal))
			}
		}
	}
	if !degrade || !recover {
		t.Fatalf("decision log missing ladder transitions (degrade=%v recover=%v)", degrade, recover)
	}
	s.Quiesce()
	if u := s.Resources().Usage(pp.ResourceLLC); u != 0 {
		t.Fatalf("load %v after Quiesce, want 0", u)
	}
	if st := s.Stats(); st.Begins != st.Ends+st.Reclaimed {
		t.Fatalf("begins %d != ends %d + reclaimed %d", st.Begins, st.Ends, st.Reclaimed)
	}
}

// TestGovernorLeaseTightening pins the degrade-time watchdog: when the
// ladder leaves Normal, every outstanding lease is re-armed to
// lease/LeaseTighten measured from its admission, so a registration
// leaked long before the overload is reclaimed almost immediately
// instead of after the full lease.
func TestGovernorLeaseTightening(t *testing.T) {
	const lease = 48 * sim.Millisecond
	s, m := buildRobust(t, StrictPolicy{}, lease, 0)
	cfg := quietGovernor()
	cfg.WaitHigh = 1 * sim.Millisecond
	cfg.DegradeHold = 2 * sim.Millisecond
	cfg.Window = 3 * sim.Millisecond
	cfg.LeaseTighten = 8 // 48 ms / 8 = 6 ms tightened horizon
	s.EnableGovernor(cfg)
	s.EnableLog(64)
	if _, err := m.AddProcess(leakyProc("occupant", pp.MB(14), 1e6)); err != nil {
		t.Fatal(err)
	}
	// The background period is live when the tighten pass runs: its lease
	// is re-armed too and expires mid-run — the documented trade (early
	// reclaim of a live period is safe; its late end is dropped).
	if _, err := m.AddProcess(declaredProc("background", pp.MB(1), 1e8)); err != nil {
		t.Fatal(err)
	}
	// Small working set: the victim's post-wake cache refill must finish
	// inside its own tightened lease, so it ends normally.
	if _, err := m.AddProcess(declaredProc("victim", pp.MB(2), 1e6)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("governed run stalled: %v", err)
	}
	gs := s.GovernorStats()
	if gs.Degradations == 0 {
		t.Fatal("ladder never degraded")
	}
	if gs.Tightened != 2 {
		t.Fatalf("tightened = %d, want 2 (occupant + background were outstanding at the degrade)", gs.Tightened)
	}
	st := s.Stats()
	if st.Reclaimed != 2 {
		t.Fatalf("reclaimed = %d, want 2", st.Reclaimed)
	}
	if st.LateEnds != 1 {
		t.Fatalf("late ends = %d, want the live background period's end dropped", st.LateEnds)
	}
	if st.Woken != 1 || st.Fallbacks != 0 {
		t.Fatalf("woken/fallbacks = %d/%d, want 1/0", st.Woken, st.Fallbacks)
	}
	// The point of the mechanism: both reclaims fire at the tightened
	// horizon, a small fraction of the 48 ms lease.
	events, _ := s.Events()
	reclaims := 0
	for _, e := range events {
		if e.Kind != EventReclaim {
			continue
		}
		reclaims++
		if at := e.At.DurationSince(0); at > lease/4 {
			t.Errorf("reclaim at %v, want well before the untightened %v lease", at, lease)
		}
	}
	if reclaims != 2 {
		t.Fatalf("reclaim events = %d, want 2", reclaims)
	}
	if u := s.Resources().Usage(pp.ResourceLLC); u != 0 {
		t.Fatalf("load %v after run, want 0", u)
	}
	if st.Begins != st.Ends+st.Reclaimed {
		t.Fatalf("begins %d != ends %d + reclaimed %d", st.Begins, st.Ends, st.Reclaimed)
	}
}

// TestGovernorReservationPreservesTicket is the monotone-Wait regression
// for waitlist aging: an aged waiter probed and re-denied returns to the
// queue under its original ticket, so its wait clock never resets, its
// reservation blocks younger admissions, and its eventual wake reports
// the full wait. Two small releases probe (and re-deny) the aged 10 MB
// waiter long before the hog frees the cache; if re-denial reset the
// ticket or enqueue time, the recorded waits would restart near zero at
// each probe.
func TestGovernorReservationPreservesTicket(t *testing.T) {
	s, m := buildRobust(t, StrictPolicy{}, 0, 0)
	cfg := quietGovernor()
	cfg.AgeThreshold = 1e-9 // any waiter ages immediately
	s.EnableGovernor(cfg)
	s.EnableLog(64)
	// hog(8 MB) runs ~52 ms. big(10 MB) is denied at t=0 and can only run
	// once the hog ends. smallA/smallB are admitted at t=0 (8+3+3 = 14)
	// and end at ~21 ms and ~32 ms — each end probes the aged big waiter
	// and re-denies it (8+10 > 15), taking a reservation. late(3 MB) is
	// denied at t=0 (14+3 > 15) and would fit at either probe (11+3,
	// 8+3); the reservation must keep it parked until big is admitted.
	if _, err := m.AddProcess(declaredProc("hog", pp.MB(8), 1e8)); err != nil {
		t.Fatal(err)
	}
	big, err := m.AddProcess(declaredProc("big", pp.MB(10), 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("smallA", pp.MB(3), 4e7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddProcess(declaredProc("smallB", pp.MB(3), 6e7)); err != nil {
		t.Fatal(err)
	}
	late, err := m.AddProcess(declaredProc("late", pp.MB(3), 1e6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("governed run stalled: %v", err)
	}
	gs := s.GovernorStats()
	if gs.Reservations != 2 {
		t.Fatalf("reservations = %d, want 2 (one per small release)", gs.Reservations)
	}
	if gs.AgedWakes != 2 {
		t.Fatalf("aged wakes = %d, want big and late admitted through the aging pass", gs.AgedWakes)
	}
	st := s.Stats()
	if st.Denied != 2 || st.Woken != 2 || st.Fallbacks != 0 {
		t.Fatalf("denied/woken/fallbacks = %d/%d/%d, want 2/2/0", st.Denied, st.Woken, st.Fallbacks)
	}
	// big waited from t=0 until the hog ended (>= 45 ms): a reset wait
	// clock would report only the time since the last probe (~20 ms).
	if st.MaxWait < 45*sim.Millisecond {
		t.Fatalf("max wait %v, want the full wait since t=0 preserved across re-denials", st.MaxWait)
	}
	events, _ := s.Events()
	var bigWaits []sim.Duration // reserve, reserve, wake — must be strictly increasing
	bigWake, lateWake := -1, -1
	for i, e := range events {
		switch {
		case e.Proc == big.ID() && (e.Kind == EventGovernorReserve || e.Kind == EventWake):
			bigWaits = append(bigWaits, e.Wait)
			if e.Kind == EventWake {
				bigWake = i
			}
		case e.Proc == late.ID() && e.Kind == EventWake:
			lateWake = i
		}
	}
	if len(bigWaits) != 3 {
		t.Fatalf("big's reserve/wake events = %d, want 2 reservations + 1 wake", len(bigWaits))
	}
	for i := 1; i < len(bigWaits); i++ {
		if bigWaits[i] <= bigWaits[i-1] {
			t.Fatalf("big's recorded waits not monotone: %v", bigWaits)
		}
	}
	if bigWake == -1 || lateWake == -1 || bigWake > lateWake {
		t.Fatalf("wake order: big at %d, late at %d — the reservation must admit the aged waiter first", bigWake, lateWake)
	}
}

// TestEffectivePolicyLadder pins the predicate substitution at each
// ladder level for each base policy.
func TestEffectivePolicyLadder(t *testing.T) {
	cases := []struct {
		base Policy
		lvl  GovernorLevel
		want string
	}{
		{StrictPolicy{}, GovNormal, "strict"},
		{StrictPolicy{}, GovDegraded, "compromise"},
		{StrictPolicy{}, GovShedding, "default"},
		{NewCompromise(), GovDegraded, "compromise"}, // already at the ladder step
		{AlwaysPolicy{}, GovDegraded, "default"},     // never made stricter
		{AlwaysPolicy{}, GovShedding, "default"},
	}
	for _, tc := range cases {
		s := New(tc.base, pp.MB(15))
		s.EnableGovernor(quietGovernor())
		s.gov.level = tc.lvl
		if got := s.effectivePolicy().Name(); got != tc.want {
			t.Errorf("%s at %v: effective policy %q, want %q", tc.base.Name(), tc.lvl, got, tc.want)
		}
	}
	// Without a governor the base policy is untouched.
	s := New(StrictPolicy{}, pp.MB(15))
	if got := s.effectivePolicy().Name(); got != "strict" {
		t.Errorf("ungoverned effective policy %q, want strict", got)
	}
}

// TestGovernorConfigValidate pins the rejected configurations: Validate
// refuses each and EnableGovernor panics on it.
func TestGovernorConfigValidate(t *testing.T) {
	if err := DefaultGovernorConfig().Validate(); err != nil {
		t.Fatalf("default config refused: %v", err)
	}
	mustPanic := func(name string, mutate func(*GovernorConfig)) {
		t.Helper()
		cfg := DefaultGovernorConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: Validate accepted an invalid config", name)
		}
		defer func() {
			if recover() == nil {
				t.Errorf("%s: EnableGovernor accepted an invalid config", name)
			}
		}()
		New(StrictPolicy{}, pp.MB(15)).EnableGovernor(cfg)
	}
	mustPanic("zero strikes", func(c *GovernorConfig) { c.Strikes = 0 })
	mustPanic("factor 1", func(c *GovernorConfig) { c.MisdeclareFactor = 1 })
	mustPanic("shed below degrade", func(c *GovernorConfig) { c.ShedDepth = c.DegradeDepth - 1 })
	mustPanic("zero window", func(c *GovernorConfig) { c.Window = 0 })
	mustPanic("fractional tighten", func(c *GovernorConfig) { c.LeaseTighten = 0.5 })
	mustPanic("zero value", func(c *GovernorConfig) { *c = GovernorConfig{} })
}

// governorFuzzConfig derives an arbitrary-but-valid governor from one
// fuzz byte, overlapping bit fields so small byte mutations move several
// knobs: depths low enough to reach shedding, every LeaseTighten and
// AgeThreshold regime, strike counts 1-4.
func governorFuzzConfig(govByte uint8) GovernorConfig {
	return GovernorConfig{
		DegradeDepth:     1 + int(govByte&7),
		ShedDepth:        1 + int(govByte&7) + int((govByte>>3)&7),
		WaitHigh:         chaosDeadline / 4,
		HotEvents:        int(govByte >> 5), // 0 disables
		Window:           chaosDeadline,
		DegradeHold:      chaosDeadline / 8,
		RecoverHold:      chaosDeadline / 4,
		LeaseTighten:     []float64{0, 1, 4, 16}[(govByte>>1)&3],
		Strikes:          1 + int(govByte&3),
		MisdeclareFactor: 2,
		Probation:        chaosDeadline / 2,
		AgeThreshold:     []float64{0, 1e-9, 0.001, 1}[(govByte>>4)&3],
	}
}

// checkGovernorInvariants asserts the governed degradation contract for
// one faulted random workload under an arbitrary governor:
//
//  1. the run terminates — the governor may never deadlock the waitlist
//     (a reservation that wedges the queue shows up as a stall here);
//  2. no period waits past the admission deadline — degradation,
//     quarantine, and aging must not defeat bounded waiting;
//  3. every opened period is accounted for after Quiesce, the load
//     table drains, and the registry and waitlist empty;
//  4. no breaker is reported open past its probation window;
//  5. the breaker counters stay consistent (restores never exceed
//     probes, every trip was admitted quarantined);
//  6. crashed threads only ever shrink the executed instruction count.
func checkGovernorInvariants(seed uint64, polIdx, rateByte, govByte uint8) error {
	policies := []Policy{StrictPolicy{}, NewCompromise(), AlwaysPolicy{}}
	pol := policies[int(polIdx)%len(policies)]
	rate := float64(rateByte) / 255
	gcfg := governorFuzzConfig(govByte)

	cfg := machine.DefaultConfig()
	cfg.MaxSimTime = 600 * sim.Second
	w := randomWorkload(seed, 6)
	plan := faults.Uniform(rate, cfg.LLCCapacity)
	w = plan.Apply(w, seed)

	s := New(pol, cfg.LLCCapacity)
	m := machine.New(cfg, s)
	s.SetWaker(m)
	s.SetClock(m.Now)
	s.SetTimer(m.Engine())
	s.SetLease(chaosLease)
	s.SetAdmissionDeadline(chaosDeadline)
	s.EnableGovernor(gcfg)
	if err := m.AddWorkload(w); err != nil {
		return fmt.Errorf("seed %d rate %.2f: invalid faulted workload: %v", seed, rate, err)
	}
	res, err := m.Run()
	if err != nil {
		return fmt.Errorf("seed %d rate %.2f policy %s gov %#x: %v", seed, rate, pol.Name(), govByte, err)
	}
	end := m.Now()
	s.Quiesce()
	st := s.Stats()
	if st.MaxWait > chaosDeadline {
		return fmt.Errorf("seed %d rate %.2f gov %#x: max wait %v exceeds the %v deadline", seed, rate, govByte, st.MaxWait, chaosDeadline)
	}
	if st.Begins != st.Ends+st.Reclaimed {
		return fmt.Errorf("seed %d rate %.2f gov %#x: %d begins vs %d ends + %d reclaims",
			seed, rate, govByte, st.Begins, st.Ends, st.Reclaimed)
	}
	for r := 0; r < pp.NumResources; r++ {
		if u := s.Resources().Usage(pp.Resource(r)); u != 0 {
			return fmt.Errorf("seed %d rate %.2f gov %#x: leftover %v load %v after Quiesce", seed, rate, govByte, pp.Resource(r), u)
		}
	}
	if s.Waitlisted() != 0 || s.ActivePeriods() != 0 {
		return fmt.Errorf("seed %d rate %.2f gov %#x: registry not drained", seed, rate, govByte)
	}
	for id := range w.Procs {
		if bs := s.BreakerState(id, end.Add(gcfg.Probation)); bs == BreakerOpen {
			return fmt.Errorf("seed %d rate %.2f gov %#x: proc %d breaker stuck open past probation", seed, rate, govByte, id)
		}
	}
	gs := s.GovernorStats()
	if gs.Restores > gs.Probes {
		return fmt.Errorf("seed %d gov %#x: %d restores from %d probes", seed, govByte, gs.Restores, gs.Probes)
	}
	if gs.QuarantinedAdmits < gs.Quarantines {
		return fmt.Errorf("seed %d gov %#x: %d trips but only %d quarantined admits", seed, govByte, gs.Quarantines, gs.QuarantinedAdmits)
	}
	var want float64
	for _, spec := range w.Procs {
		want += float64(spec.Threads) * spec.Program.TotalInstr()
	}
	if res.Counters.Instructions > want+1 {
		return fmt.Errorf("seed %d rate %.2f gov %#x: executed %v instructions, program total is %v",
			seed, rate, govByte, res.Counters.Instructions, want)
	}
	if res.Counters.Crashes == 0 && res.Counters.Instructions < want-1 {
		return fmt.Errorf("seed %d rate %.2f gov %#x: executed %v of %v instructions with no crashes",
			seed, rate, govByte, res.Counters.Instructions, want)
	}
	return nil
}

// TestFuzzGovernorInvariants is the quick.Check sweep;
// FuzzGovernorInvariants explores further from the committed corpus
// under `make fuzz` / CI.
func TestFuzzGovernorInvariants(t *testing.T) {
	f := func(seed uint64, polIdx, rate, gov uint8) bool {
		if err := checkGovernorInvariants(seed, polIdx, rate, gov); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzGovernorInvariants is the native fuzz entry point. The corpus
// seeds cover each policy across fault rates and governor shapes:
// ladder-only, breaker-heavy, aging-heavy, everything-on, and the
// boundary seeds.
func FuzzGovernorInvariants(f *testing.F) {
	for _, c := range []struct {
		seed           uint64
		pol, rate, gov uint8
	}{
		{0, 0, 0, 0}, {1, 0, 13, 0x07}, {2, 1, 77, 0x16},
		{3, 2, 38, 0x30}, {5, 0, 200, 0xff}, {1337, 0, 255, 0x6d},
		{^uint64(0), 1, 128, 0x81},
	} {
		f.Add(c.seed, c.pol, c.rate, c.gov)
	}
	f.Fuzz(func(t *testing.T, seed uint64, polIdx, rate, gov uint8) {
		if err := checkGovernorInvariants(seed, polIdx, rate, gov); err != nil {
			t.Error(err)
		}
	})
}
