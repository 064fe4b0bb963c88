package core

import (
	"fmt"
	"math"
	"sort"

	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
)

// The adaptive admission governor closes the loop from observed behavior
// back to admission decisions. Algorithm 1 picks one fixed policy and
// trusts every declared demand; under misdeclared demands and arrival
// bursts a static predicate either over-admits (thrashing) or parks
// periods until the fallback deadline fires. The governor wraps the
// scheduling predicate with three cooperating mechanisms:
//
//   - Overload-aware policy degradation. The governor watches pressure
//     signals already sampled on the decision path — waitlist depth, a
//     windowed wait-time histogram (same Frexp log-bucketing as
//     rda_wait_seconds), and fallback/reclaim rates — and steps the
//     effective policy Normal (the configured base, e.g. Strict) →
//     Degraded (Compromise, x=2) → Shedding (best-effort: admission
//     control shed entirely) as sustained pressure crosses thresholds.
//     Hysteresis windows on the virtual clock (DegradeHold / RecoverHold)
//     keep it from flapping, and recovery steps back one level at a time.
//     Leaving Normal also tightens the lease watchdog (LeaseTighten):
//     leaked registrations are the dominant cause of sustained admission
//     pressure, and waiting a full lease to discover them starves the
//     queue behind them, so while degraded the governor trades admission
//     accuracy (an early reclaim of a live period is safe — its late
//     pp_end is dropped) for liveness.
//
//   - Per-process misdeclaration quarantine. A circuit breaker compares
//     each process's declared demand against the occupancy the machine
//     model actually charges it (the simulation image of post-hoc
//     occupancy measurement: machine.contention charges the physical
//     working set, so the gate can read the truth at period entry).
//     Declarations off by MisdeclareFactor× in either direction count as
//     strikes; after Strikes strikes the breaker trips and the offender
//     is admitted as undeclared baseline — its declarations ignored, no
//     load charged — for a Probation window. The breaker then half-opens:
//     the next period is a probe, evaluated normally; a clean declaration
//     closes the breaker, another lie re-trips it.
//
//   - Starvation-free waitlist aging. Each waitlisted period accumulates
//     a demand-weighted aging priority (wait seconds × demand/capacity).
//     Once a period's priority crosses AgeThreshold, the wake scan probes
//     it first; if it still does not fit, it takes a capacity
//     reservation — no younger waiter is admitted in that cascade, so
//     freed capacity accumulates for the aged period instead of being
//     nibbled away by small late arrivals. Strict's perpetual bypass of
//     large demands becomes a graceful, bounded-unfairness guarantee
//     (and the fallback deadline still bounds the absolute wait).
//
// Everything is driven by the virtual clock and the scheduler's own
// decision path, so governed runs remain deterministic: the same
// workload, seed, and configuration produce identical transitions on any
// worker count.

// GovernorLevel is the degradation ladder position.
type GovernorLevel int

const (
	// GovNormal: the configured base policy is in force.
	GovNormal GovernorLevel = iota
	// GovDegraded: the predicate is relaxed to RDA:Compromise (x=2), or
	// the base policy when it is already at least that permissive.
	GovDegraded
	// GovShedding: admission control is shed entirely — every period is
	// admitted, as under the stock scheduler — until pressure drains.
	GovShedding
)

func (l GovernorLevel) String() string {
	switch l {
	case GovNormal:
		return "normal"
	case GovDegraded:
		return "degraded"
	case GovShedding:
		return "shedding"
	default:
		return fmt.Sprintf("GovernorLevel(%d)", int(l))
	}
}

// BreakerState is a misdeclaration circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: declarations are trusted; strikes accumulate.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the process is quarantined — admitted as undeclared
	// baseline until the probation window elapses.
	BreakerOpen
	// BreakerHalfOpen: probation elapsed; the next period is a probe.
	BreakerHalfOpen
)

func (b BreakerState) String() string {
	switch b {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(b))
	}
}

// GovernorConfig tunes the governor. The zero value is invalid; start
// from DefaultGovernorConfig. All windows are virtual-clock durations.
type GovernorConfig struct {
	// DegradeDepth is the waitlist depth that counts as sustained
	// pressure toward Degraded; ShedDepth escalates toward Shedding.
	DegradeDepth int
	ShedDepth    int
	// WaitHigh is the p95 waitlist time that counts as pressure even at
	// modest depth (read from the governor's windowed wait histogram).
	WaitHigh sim.Duration
	// HotEvents is the number of fallback+reclaim events within one
	// Window that counts as pressure (the robustness layer working hard
	// is itself an overload signal).
	HotEvents int
	// Window bounds how long the windowed signals (wait histogram,
	// fallback/reclaim counts) accumulate before they reset.
	Window sim.Duration
	// DegradeHold is how long pressure must persist before the governor
	// steps down one level; RecoverHold is how long calm must persist
	// before it steps back up. The asymmetry is the hysteresis.
	DegradeHold sim.Duration
	RecoverHold sim.Duration
	// LeaseTighten divides the period lease while the ladder is below
	// Normal: the moment the governor degrades, every outstanding lease
	// is re-armed to lease/LeaseTighten and new admissions lease at the
	// tightened horizon, so leaked registrations are reclaimed while the
	// pressure they cause is still live. Values <= 1 (or a disabled
	// lease) leave the watchdog alone.
	LeaseTighten float64

	// Strikes is the breaker trip count K; MisdeclareFactor is the
	// declared/actual ratio (either direction) that counts as a strike.
	Strikes          int
	MisdeclareFactor float64
	// Probation is how long a tripped breaker stays open before it
	// half-opens for a probe.
	Probation sim.Duration

	// AgeThreshold is the demand-weighted aging priority (wait seconds ×
	// demand/capacity) at which a waitlisted period earns reservation
	// treatment in the wake scan. <= 0 disables aging.
	AgeThreshold float64
}

// DefaultGovernorConfig returns thresholds sized for the Table 1 machine
// and the paper's workload scale (runs of virtual seconds). Harnesses
// that shrink workloads scale the windows alongside (see
// experiments.RunOverload).
func DefaultGovernorConfig() GovernorConfig {
	return GovernorConfig{
		DegradeDepth:     8,
		ShedDepth:        24,
		WaitHigh:         20 * sim.Millisecond,
		HotEvents:        12,
		Window:           250 * sim.Millisecond,
		DegradeHold:      50 * sim.Millisecond,
		RecoverHold:      200 * sim.Millisecond,
		LeaseTighten:     4,
		Strikes:          3,
		MisdeclareFactor: 2,
		Probation:        500 * sim.Millisecond,
		AgeThreshold:     0.05,
	}
}

// Validate reports whether EnableGovernor would accept the config.
func (c GovernorConfig) Validate() error {
	switch {
	case c.DegradeDepth <= 0 || c.ShedDepth < c.DegradeDepth:
		return fmt.Errorf("core: governor depths %d/%d (want 0 < degrade <= shed)", c.DegradeDepth, c.ShedDepth)
	case c.Strikes <= 0:
		return fmt.Errorf("core: governor strikes %d (want > 0)", c.Strikes)
	case c.MisdeclareFactor <= 1:
		return fmt.Errorf("core: governor misdeclare factor %v (want > 1)", c.MisdeclareFactor)
	case c.Window <= 0 || c.DegradeHold < 0 || c.RecoverHold < 0 || c.Probation < 0:
		return fmt.Errorf("core: governor windows must be positive (window %v)", c.Window)
	case c.LeaseTighten != 0 && c.LeaseTighten < 1:
		return fmt.Errorf("core: governor lease tighten %v (want 0, or >= 1)", c.LeaseTighten)
	}
	return nil
}

// GovernorStats counts governor activity for reports and tests.
type GovernorStats struct {
	Degradations      uint64 // level steps toward shedding
	Recoveries        uint64 // level steps back toward the base policy
	Strikes           uint64 // misdeclarations recorded against closed breakers
	Quarantines       uint64 // breaker trips (including half-open re-trips)
	QuarantinedAdmits uint64 // periods admitted as undeclared baseline
	Probes            uint64 // half-open probes evaluated
	Restores          uint64 // breakers closed after a clean probe
	Reservations      uint64 // cascades blocked for an aged waiter
	AgedWakes         uint64 // aged waiters admitted through their reservation
	Tightened         uint64 // outstanding leases re-armed to the tightened horizon
}

// waitBuckets is the governor's windowed wait histogram: Frexp exponent
// buckets like telemetry's rda_wait_seconds, but a fixed array so the
// decision path allocates nothing. Exponents are clamped into
// [-waitExpBias, waitExpCap-waitExpBias).
const (
	waitExpBias = 32
	waitExpCap  = 64
)

type waitBuckets struct {
	counts [waitExpCap]uint32
	total  uint32
}

func (w *waitBuckets) observe(seconds float64) {
	w.total++
	if seconds <= 0 {
		w.counts[0]++
		return
	}
	_, e := math.Frexp(seconds)
	e += waitExpBias
	if e < 1 {
		e = 1
	}
	if e >= waitExpCap {
		e = waitExpCap - 1
	}
	w.counts[e]++
}

// p95AtLeast reports whether the windowed p95 wait reaches the bound
// (bucket upper bounds, so the tail is never understated).
func (w *waitBuckets) p95AtLeast(bound float64) bool {
	if w.total == 0 || bound <= 0 {
		return false
	}
	rank := uint32(math.Ceil(0.95 * float64(w.total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint32
	for e := 0; e < waitExpCap; e++ {
		cum += w.counts[e]
		if cum >= rank {
			if e == 0 {
				return false
			}
			return math.Ldexp(1, e-waitExpBias) >= bound
		}
	}
	return false
}

func (w *waitBuckets) reset() { *w = waitBuckets{} }

// breaker is one process's misdeclaration circuit breaker.
type breaker struct {
	state    BreakerState
	strikes  int
	openedAt sim.Time
}

// governor is the scheduler-internal state. It belongs to one scheduler
// on one goroutine, like everything else on the decision path.
type governor struct {
	cfg   GovernorConfig
	level GovernorLevel

	// Hysteresis bookkeeping: since when the pressure (or calm) signal
	// has been continuously asserted.
	pressured     bool
	pressureSince sim.Time
	calm          bool
	calmSince     sim.Time

	// Windowed signals.
	windowStart  sim.Time
	winFallbacks int
	winReclaims  int
	waits        waitBuckets

	breakers []*breaker // by process ID; nil until the process first declares

	// tickEv is the governor's self-evaluation timer: the decision path
	// only evaluates pressure when events flow, but a fully stalled
	// system (every admitted period leaked, everyone else blocked) goes
	// silent — the tick keeps the hysteresis clock running through the
	// stall so degradation fires before the fallback deadlines do.
	tickEv *sim.Event

	stats GovernorStats
}

// EnableGovernor attaches an adaptive admission governor configured by
// cfg, and panics on a config Validate refuses. The governor measures
// its hysteresis and aging windows on the clock (SetClock) and uses the
// timer (SetTimer) for its self-evaluation tick and to re-run the wake
// scan after a degradation step frees admission headroom.
func (s *Scheduler) EnableGovernor(cfg GovernorConfig) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s.gov = &governor{cfg: cfg}
}

// Governor reports whether a governor is attached and its current level.
func (s *Scheduler) Governor() (GovernorLevel, bool) {
	if s.gov == nil {
		return GovNormal, false
	}
	return s.gov.level, true
}

// GovernorStats returns a copy of the governor counters (zero when no
// governor is attached).
func (s *Scheduler) GovernorStats() GovernorStats {
	if s.gov == nil {
		return GovernorStats{}
	}
	return s.gov.stats
}

// BreakerState returns the quarantine breaker state for a process at the
// given time, applying the lazy open→half-open transition so an open
// breaker is never reported past its probation window.
func (s *Scheduler) BreakerState(procID int, now sim.Time) BreakerState {
	if s.gov == nil {
		return BreakerClosed
	}
	if uint(procID) >= uint(len(s.gov.breakers)) || s.gov.breakers[procID] == nil {
		return BreakerClosed
	}
	b := s.gov.breakers[procID]
	if b.state == BreakerOpen && now.DurationSince(b.openedAt) >= s.gov.cfg.Probation {
		return BreakerHalfOpen
	}
	return b.state
}

// effectivePolicy is the predicate the admission path consults: the base
// policy at GovNormal, and the more permissive of the base policy and
// the ladder step when degraded.
func (s *Scheduler) effectivePolicy() Policy {
	if s.gov == nil {
		return s.policy
	}
	switch s.gov.level {
	case GovDegraded:
		if _, ok := s.policy.(AlwaysPolicy); ok {
			return s.policy // already more permissive than the ladder step
		}
		if c, ok := s.policy.(CompromisePolicy); ok && c.Factor >= DefaultCompromiseFactor {
			return s.policy
		}
		return NewCompromise()
	case GovShedding:
		return AlwaysPolicy{}
	default:
		return s.policy
	}
}

// govObserve feeds one decision into the governor's windowed signals and
// re-evaluates the degradation level. Called on the deny, wake, end,
// fallback, and reclaim paths; it allocates nothing.
func (s *Scheduler) govObserve(kind EventKind, wait sim.Duration) {
	g := s.gov
	if g == nil {
		return
	}
	now := s.clock()
	if now.DurationSince(g.windowStart) >= g.cfg.Window {
		g.winFallbacks, g.winReclaims = 0, 0
		g.waits.reset()
		g.windowStart = now
	}
	switch kind {
	case EventFallback:
		g.winFallbacks++
		g.waits.observe(wait.Seconds())
	case EventReclaim:
		g.winReclaims++
	case EventWake:
		g.waits.observe(wait.Seconds())
	}
	s.govEvaluate(now)
	s.govScheduleTick()
}

// govScheduleTick arms the self-evaluation timer when there is pressure
// to watch (a nonempty waitlist, or a degraded level that needs the
// calm clock to keep running so it can recover). At most one tick is
// pending; each fires after the shorter hold window and re-arms itself
// while still needed, so a silent stall cannot outlast the hysteresis.
func (s *Scheduler) govScheduleTick() {
	g := s.gov
	if g == nil || g.tickEv != nil {
		return
	}
	if s.waitlist.Len() == 0 && g.level == GovNormal {
		return
	}
	d := g.cfg.DegradeHold
	if g.level > GovNormal && (d <= 0 || g.cfg.RecoverHold < d) && g.cfg.RecoverHold > 0 {
		d = g.cfg.RecoverHold
	}
	if d <= 0 {
		d = g.cfg.Window / 4
	}
	if d <= 0 {
		return
	}
	g.tickEv = s.timer.After(d, s.govTick)
}

// govTick is the armed self-evaluation callback. Each firing is a
// journal record (RecGovTick): a decision the revival checks, after
// which a snapshot may be cut holding the post-tick ladder and the
// re-armed tick time.
func (s *Scheduler) govTick() {
	g := s.gov
	g.tickEv = nil
	s.govEvaluate(s.clock())
	s.govScheduleTick()
	s.rrec(RecGovTick, 0, noKey)
}

// govEvaluate applies the hysteresis state machine: the level steps one
// rung toward the target only after the signal has been continuously
// asserted for the hold window.
func (s *Scheduler) govEvaluate(now sim.Time) {
	g := s.gov
	// The age of the oldest waiter is the stall signal: a deep waitlist
	// that drains is healthy (Strict working as designed), one whose head
	// does not move is overload.
	var headAge sim.Duration
	if per, ok := s.waitlist.Peek(); ok {
		headAge = now.DurationSince(per.enqueuedAt)
	}
	target := g.targetLevel(s.waitlist.Len(), headAge)
	switch {
	case target > g.level:
		g.calm = false
		if !g.pressured {
			g.pressured = true
			g.pressureSince = now
		}
		if now.DurationSince(g.pressureSince) >= g.cfg.DegradeHold {
			g.level++
			g.pressured = false
			g.stats.Degradations++
			s.emitGovernor(EventGovernorDegrade)
			if g.level == GovDegraded {
				s.govTightenLeases(now)
			}
			// The ladder just got more permissive: waiting periods may
			// now fit, so re-run the wake scan (deferred when we are
			// inside one, or inside EnterPhase's deny path where the
			// denied thread is not yet parked).
			s.requestRescan()
		}
	case target < g.level:
		g.pressured = false
		if !g.calm {
			g.calm = true
			g.calmSince = now
		}
		if now.DurationSince(g.calmSince) >= g.cfg.RecoverHold {
			g.level--
			g.calm = false
			g.stats.Recoveries++
			s.emitGovernor(EventGovernorRecover)
		}
	default:
		g.pressured = false
		g.calm = false
	}
}

// targetLevel maps the instantaneous pressure signals to the level the
// governor is drifting toward. hotTail — the head of the waitlist is
// stalled past WaitHigh, or the windowed p95 wait reaches it — is the
// primary signal; waitlist depth escalates a stall to shedding but
// never trips the ladder by itself below ShedDepth, because a deep
// queue that drains is a strict predicate working as designed, not
// overload.
func (g *governor) targetLevel(depth int, headAge sim.Duration) GovernorLevel {
	hotTail := (g.cfg.WaitHigh > 0 && headAge >= g.cfg.WaitHigh) ||
		g.waits.p95AtLeast(g.cfg.WaitHigh.Seconds())
	hotFaults := g.cfg.HotEvents > 0 && g.winFallbacks+g.winReclaims >= g.cfg.HotEvents
	switch {
	case depth >= g.cfg.ShedDepth || (depth >= g.cfg.DegradeDepth && hotTail):
		return GovShedding
	case hotTail || hotFaults:
		return GovDegraded
	default:
		return GovNormal
	}
}

// govLease is the lease horizon for a new admission: the configured
// lease at Normal, lease/LeaseTighten while degraded.
func (s *Scheduler) govLease() sim.Duration {
	g := s.gov
	if g == nil || g.level == GovNormal || g.cfg.LeaseTighten <= 1 {
		return s.lease
	}
	return sim.Duration(float64(s.lease) / g.cfg.LeaseTighten)
}

// govTightenLeases re-arms every outstanding lease to the tightened
// horizon, in admission order, as the ladder leaves Normal. The horizon
// is measured from each period's admission, so a leaked period admitted
// long before the overload — exactly the load the waitlist is stuck
// behind — is reclaimed on the next engine step rather than holding its
// registration for the rest of the original lease.
func (s *Scheduler) govTightenLeases(now sim.Time) {
	g := s.gov
	if g.cfg.LeaseTighten <= 1 || s.lease <= 0 {
		return
	}
	tight := sim.Duration(float64(s.lease) / g.cfg.LeaseTighten)
	if tight <= 0 {
		return
	}
	pers := make([]*period, 0, s.reg.len())
	s.reg.each(func(per *period) {
		if per.admitted && per.leaseEv != nil {
			pers = append(pers, per)
		}
	})
	sort.Slice(pers, func(i, j int) bool { return pers[i].id < pers[j].id })
	for _, per := range pers {
		d := tight - now.DurationSince(per.admittedAt)
		if d < 1 {
			d = 1 // next engine step, never this instant
		}
		s.timer.Cancel(per.leaseEv)
		per.leaseEv = nil
		s.armLease(per, d)
		g.stats.Tightened++
	}
}

// emitGovernor publishes a period-less governor transition: Proc is -1
// and Phase carries the level after the step, so sinks can reconstruct
// the ladder walk.
func (s *Scheduler) emitGovernor(kind EventKind) {
	s.emit(kind, nil, periodKey{procID: -1, phaseIdx: int(s.gov.level)}, pp.Demand{})
}

// requestRescan re-runs the wake scan as soon as it is safe: immediately
// flagged when a scan is already in progress, otherwise deferred one
// virtual picosecond through the timer so a thread currently being
// denied inside EnterPhase is parked before it can be woken.
func (s *Scheduler) requestRescan() {
	if s.inWake {
		s.rescan = true
		return
	}
	s.timer.After(1, s.wakeWaitlist)
}

// govAdmission classifies a period entry against the process's breaker.
type govAdmission int

const (
	govAdmitNormal govAdmission = iota
	govAdmitQuarantined
)

// govAdmit runs the quarantine state machine for one arriving period.
// The declared demand is compared against the occupancy the machine
// model will actually charge (ph.OccupancyBytes; see package comment).
func (s *Scheduler) govAdmit(procID int, ph *proc.Phase) govAdmission {
	g := s.gov
	if g == nil {
		return govAdmitNormal
	}
	now := s.clock()
	g.breakers = growSlots(g.breakers, procID)
	b := g.breakers[procID]
	if b == nil {
		b = &breaker{}
		g.breakers[procID] = b
	}
	if b.state == BreakerOpen {
		if now.DurationSince(b.openedAt) < g.cfg.Probation {
			g.stats.QuarantinedAdmits++
			return govAdmitQuarantined
		}
		b.state = BreakerHalfOpen
	}
	lied := g.misdeclared(ph)
	switch b.state {
	case BreakerHalfOpen:
		g.stats.Probes++
		if lied {
			b.state = BreakerOpen
			b.openedAt = now
			g.stats.Quarantines++
			g.stats.QuarantinedAdmits++
			return govAdmitQuarantined
		}
		b.state = BreakerClosed
		b.strikes = 0
		g.stats.Restores++
		s.emit(EventGovernorRestore, nil, periodKey{procID: procID}, ph.Demand())
		return govAdmitNormal
	default: // BreakerClosed
		if !lied {
			return govAdmitNormal
		}
		b.strikes++
		g.stats.Strikes++
		if b.strikes < g.cfg.Strikes {
			return govAdmitNormal
		}
		b.state = BreakerOpen
		b.openedAt = now
		g.stats.Quarantines++
		g.stats.QuarantinedAdmits++
		return govAdmitQuarantined
	}
}

// misdeclared reports whether a phase's declared primary demand is off
// by at least MisdeclareFactor in either direction from the occupancy
// the machine charges. Zero-occupancy phases are never strikes: there is
// no truth to compare against.
func (g *governor) misdeclared(ph *proc.Phase) bool {
	actual := float64(ph.OccupancyBytes())
	declared := float64(ph.Demand().WorkingSet)
	if actual <= 0 || declared <= 0 {
		return false
	}
	f := g.cfg.MisdeclareFactor
	return declared >= f*actual || actual >= f*declared
}

// agePriority is the demand-aware aging priority of a waitlisted period:
// wait seconds weighted by the primary demand's share of LLC capacity,
// so the large demands Strict perpetually bypasses age fastest.
func (s *Scheduler) agePriority(per *period, now sim.Time) float64 {
	capacity := s.rm.Capacity(pp.ResourceLLC)
	if capacity <= 0 {
		return 0
	}
	weight := float64(per.demands[0].WorkingSet) / float64(capacity)
	return now.DurationSince(per.enqueuedAt).Seconds() * weight
}

// wakeAged runs the aging pass of a wake cascade: the highest-priority
// aged waiter is dequeued and probed first; admitted ones are appended
// to woken, and the first aged waiter that still does not fit is
// re-enqueued under its original ticket (its wait clock and deadline
// keep running — no reset) and takes a capacity reservation, reported by
// blocking every younger admission in this cascade.
func (s *Scheduler) wakeAged(woken []*period) (_ []*period, reserved bool) {
	g := s.gov
	if g == nil || g.cfg.AgeThreshold <= 0 {
		return woken, false
	}
	now := s.clock()
	for {
		per, ticket, ok := s.waitlist.AgedFirst(g.cfg.AgeThreshold, func(p *period) float64 {
			return s.agePriority(p, now)
		})
		if !ok {
			return woken, false
		}
		s.waitlist.Remove(ticket)
		runnable, safeguard := s.tryScheduleAll(per.demands)
		if !runnable {
			// Woken for the probe and re-denied in the same cascade:
			// back to its original position, original ticket.
			s.waitlist.EnqueueAs(per, ticket)
			g.stats.Reservations++
			s.emit(EventGovernorReserve, per, per.key, per.demands[0])
			s.rrec(RecReserve, per.id, per.key)
			return woken, true
		}
		if safeguard {
			s.stats.Safegrds++
		}
		s.admit(per)
		g.stats.AgedWakes++
		s.emit(EventWake, per, per.key, per.demands[0])
		woken = append(woken, per)
	}
}
