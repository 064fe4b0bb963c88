package core

import (
	"fmt"
	"sort"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// Graceful degradation for misbehaving workloads. Algorithm 1 assumes
// cooperative applications: every pp_begin is honest and paired with a
// pp_end. A production admission service gets clients that lie, leak,
// and crash, so the scheduler adds two bounded-failure mechanisms:
//
//   - Period leases: every admitted period carries a lease. If it has
//     not ended when the lease expires — the owner crashed, or dropped
//     its pp_end — the watchdog reclaims its demand from the resource
//     monitor, restores the load table to a consistent state, and
//     re-runs the wait queue so threads blocked on the leaked capacity
//     make progress. A pp_end arriving after reclamation is recognized
//     (Stats.LateEnds) and dropped.
//
//   - Bounded waiting / fallback admission: a waitlisted period that is
//     still waiting when the admission deadline expires is degraded to
//     stock-scheduler admission — it runs untracked, exactly like an
//     application that declared nothing. RDA:Strict can therefore never
//     starve a thread forever on an unsatisfiable demand; the event is
//     logged (EventFallback) and counted (Stats.Fallbacks).
//
// Both are driven by the simulation's own event engine through the Timer
// interface, so fault-injected runs remain deterministic.

// Timer schedules scheduler-internal timeouts (period leases, admission
// deadlines). *sim.Engine satisfies it; machine callers pass
// Machine.Engine().
type Timer interface {
	After(sim.Duration, func()) *sim.Event
	Cancel(*sim.Event)
}

// SetTimer binds the event engine used for leases, admission deadlines
// and the governor's tick.
func (s *Scheduler) SetTimer(t Timer) { s.timer = t }

// SetLease configures the period lease: an admitted period that has not
// ended after d is presumed leaked (dropped pp_end or crashed owner) and
// its load is reclaimed. d <= 0 disables the watchdog. The lease must be
// configured longer than any legitimate period; a too-short lease
// reclaims live periods, which is safe (their late pp_end is dropped)
// but degrades admission accuracy.
func (s *Scheduler) SetLease(d sim.Duration) { s.lease = d }

// SetAdmissionDeadline bounds how long a denied period may wait before it
// is degraded to stock-scheduler admission. d <= 0 disables fallback
// admission (the paper's behavior: unbounded waiting).
func (s *Scheduler) SetAdmissionDeadline(d sim.Duration) { s.deadline = d }

// armLease arms per's lease watchdog d from now; d <= 0 (the watchdog
// is off) arms nothing. The callback compares the admission ID captured
// here: the period may have closed and been recycled under a new one
// (registry.go) by the time it fires.
func (s *Scheduler) armLease(per *period, d sim.Duration) {
	if d <= 0 {
		return
	}
	id := per.id
	per.leaseEv = s.timer.After(d, func() {
		if per.id != id {
			return
		}
		per.leaseEv = nil
		s.reclaim(per)
	})
}

// armDeadline arms per's fallback-admission deadline d from now, at
// the earliest on the next engine step, with the same recycled-period
// guard as armLease. A denial passes the full deadline; a waiter moved
// between shards passes what its original deadline had left, so its
// wait clock keeps running rather than restart. With fallback admission
// off it arms nothing.
func (s *Scheduler) armDeadline(per *period, d sim.Duration) {
	if s.deadline <= 0 {
		return
	}
	if d < 1 {
		d = 1
	}
	id := per.id
	per.deadlineEv = s.timer.After(d, func() {
		if per.id != id {
			return
		}
		per.deadlineEv = nil
		s.fallbackAdmit(per)
	})
}

func (s *Scheduler) cancelDeadline(per *period) {
	if per.deadlineEv != nil {
		s.timer.Cancel(per.deadlineEv)
		per.deadlineEv = nil
	}
}

// noteWait returns how long a period sat on the waitlist and records it
// in MaxWait.
func (s *Scheduler) noteWait(per *period) sim.Duration {
	w := s.clock().DurationSince(per.enqueuedAt)
	if w > s.stats.MaxWait {
		s.stats.MaxWait = w
	}
	return w
}

// reclaim is the lease watchdog: it evicts a still-registered period,
// returns its demand to the resource monitor, remembers the key so a
// late pp_end is recognized, and re-runs the wait queue against the
// recovered capacity.
func (s *Scheduler) reclaim(per *period) {
	if s.reg.get(per.key) != per || !per.admitted {
		return // ended (or was never admitted) in the meantime
	}
	s.unregister(per)
	if !per.untracked {
		for _, d := range per.demands {
			s.mustDecrement(d)
			if d.Resource == pp.ResourceLLC {
				s.stats.ReclaimedBytes += d.WorkingSet
			}
		}
	}
	s.reclaimed[per.key] = true
	s.stats.Reclaimed++
	s.emit(EventReclaim, per, per.key, per.demands[0])
	s.govObserve(EventReclaim, 0)
	s.rrec(RecReclaim, per.id, per.key)
	s.wakeWaitlist()
}

// fallbackAdmit fires at the admission deadline: the period has waited
// long enough. It leaves the waitlist and runs as if undeclared — no
// load is charged, the stock scheduler takes over — so an unsatisfiable
// demand degrades to the paper's baseline instead of starving.
func (s *Scheduler) fallbackAdmit(per *period) {
	if per.admitted || s.reg.get(per.key) != per {
		return // admitted or reclaimed in the meantime
	}
	s.waitlist.Remove(per.ticket)
	per.admitted = true
	per.untracked = true
	per.admittedAt = s.clock()
	s.reg.unpark(per.key.procID)
	s.stats.Fallbacks++
	wait := s.noteWait(per)
	s.emit(EventFallback, per, per.key, per.demands[0])
	s.govObserve(EventFallback, wait)
	s.armLease(per, s.govLease())
	s.release(per)
	s.rrec(RecFallback, per.id, per.key)
}

// Quiesce force-reclaims every period still registered, in admission-ID
// order, and reports how many there were. It is the end-of-run image of
// lease expiry: when a run completes with periods still open, their
// owners are gone (leaked ends, crashed threads), so the monitor is
// restored to zero load before its counters are read. The resource
// monitor must report zero load afterwards; a nonzero residue is an
// accounting bug and panics.
func (s *Scheduler) Quiesce() int {
	pers := make([]*period, 0, s.reg.len())
	s.reg.each(func(per *period) { pers = append(pers, per) })
	sort.Slice(pers, func(i, j int) bool { return pers[i].id < pers[j].id })
	n := 0
	for _, per := range pers {
		if !per.admitted {
			continue // still waitlisted; its threads are alive and blocked
		}
		s.reclaim(per)
		n++
	}
	for r := 0; r < pp.NumResources; r++ {
		if u := s.rm.Usage(pp.Resource(r)); u != 0 && s.reg.len() == 0 {
			panic(fmt.Sprintf("core: %v load %v outstanding after Quiesce with empty registry", pp.Resource(r), u))
		}
	}
	return n
}
