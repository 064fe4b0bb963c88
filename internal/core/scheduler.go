package core

import (
	"errors"
	"fmt"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sched"
	"rdasched/internal/sim"
)

// Waker resumes threads the scheduler paused. internal/machine's Machine
// satisfies it.
type Waker interface {
	Unblock(*machine.Thread)
}

// Stats counts scheduler activity for reports and tests.
type Stats struct {
	Begins   uint64 // periods opened (first thread in)
	Ends     uint64 // periods closed (last thread out)
	Admitted uint64 // periods admitted by the predicate (incl. wakes)
	Denied   uint64 // periods waitlisted at least once
	Woken    uint64 // threads resumed from the waitlist
	Safegrds uint64 // periods admitted by the empty-load safeguard

	// Robustness counters (the graceful-degradation layer).
	Reclaimed      uint64   // periods reclaimed by the lease watchdog or Quiesce
	ReclaimedBytes pp.Bytes // LLC load returned to the monitor by reclamations
	Fallbacks      uint64   // waitlisted periods degraded to stock admission at the deadline
	Rejected       uint64   // invalid external demands refused (period ran untracked)
	LateEnds       uint64   // pp_ends after reclamation, or with no matching begin

	// MaxWait is the longest any period sat on the waitlist before being
	// admitted (by release or fallback).
	MaxWait sim.Duration
}

// periodKey identifies a progress period instance: one process entering
// one declared phase. Threads of the process share the period (they share
// the phase's working set), which is how the paper's multi-threaded
// SPLASH-2 applications register one demand per program phase.
type periodKey struct {
	procID   int
	phaseIdx int
}

// period is a registry entry: an active or pending progress period.
type period struct {
	id       pp.ID
	key      periodKey
	demands  []pp.Demand // LLC occupancy, plus optional extra resources
	taskPool bool
	admitted bool
	// untracked periods run without load charged to the monitor: either
	// their demand was invalid (rejected) or they were admitted by
	// fallback after the admission deadline. Their end decrements nothing.
	untracked bool
	refs      int // threads currently executing inside the period
	waiters   []*machine.Thread

	// Waitlist bookkeeping for bounded waiting.
	ticket     uint64
	enqueuedAt sim.Time
	admittedAt sim.Time
	deadlineEv *sim.Event
	leaseEv    *sim.Event

	// evacuated marks a waiter displaced off a failed shard that found no
	// surviving shard with room; the recovery retry loop re-probes these
	// until its backoff budget runs out (domain_recovery.go).
	evacuated bool

	// next links the period into its process's chain in the registry,
	// or into the free list once recycled (registry.go).
	next *period
}

// Scheduler is the RDA scheduling extension. It implements machine.Gate:
// the machine consults it whenever a thread enters or exits a declared
// phase, which is the simulation image of the pp_begin/pp_end API calls.
//
// Processes that never declare phases bypass it entirely ("our system
// ignores processes that have not provided progress period information").
type Scheduler struct {
	policy Policy
	rm     *ResourceMonitor
	waker  Waker

	nextID   pp.ID
	reg      registry // open periods, thread residency, parked pools
	waitlist sched.WaitQueue[*period]
	reserve  pp.Bytes // §6 extension: capacity withheld from admission
	stats    Stats

	// Graceful degradation (see lease.go): period leases, bounded
	// waiting, and the registry of reclaimed periods so a late pp_end is
	// recognized instead of corrupting the load table.
	timer     Timer
	lease     sim.Duration
	deadline  sim.Duration
	reclaimed map[periodKey]bool

	// Adaptive admission governor (governor.go): nil when disabled.
	// inWake/rescan serialize wake cascades so a governor transition (or
	// any reentrant trigger) re-runs the scan instead of nesting it.
	gov    *governor
	inWake bool
	rescan bool
	woken  []*period // the wake scan's scratch; cascades never nest

	// Decision stream (log.go) and metrics sampling (metrics.go).
	clock Clock
	sinks []EventSink
	met   *schedMetrics

	// Blame sinks (blame.go): the subset of sinks that also take the
	// blocker snapshot on every deny. blameBuf is the reused snapshot
	// scratch so an attached blame sink costs one sort per deny, not an
	// allocation; empty blameSinks keeps the deny path allocation-free.
	blameSinks []BlameSink
	blameBuf   []Blocker

	// Sharding hooks (domain.go). A DomainSet runs several shard
	// schedulers behind one gate: idSrc, when set, allocates admission
	// IDs from a set-wide counter so IDs stay unique across shards
	// (shared sinks key spans by ID); domainIdx stamps this shard's
	// index into its events; postWake runs after the outermost wake
	// cascade finishes — the set's cross-domain steal scan. All three
	// are zero on a standalone scheduler, leaving the seed path intact.
	idSrc     func() pp.ID
	domainIdx int
	postWake  func()

	// Checkpoint hooks (replay.go / state.go). rsink receives the
	// admission journal stream; setStamp, set by a sharded DomainSet,
	// stamps set-level post-state onto every shard record; pendingLease
	// accumulates governor lease re-arms between records.
	rsink        ReplaySink
	setStamp     func(*ReplayRecord)
	pendingLease []LeasePatch

	// Recovery hooks (domain_recovery.go). offline quarantines the shard:
	// the predicate denies everything, including the empty-load safeguard,
	// so a crashed shard never admits even once drained. tolerateDrift
	// turns a load-table underflow on the decrement path into a clamp to
	// zero instead of a panic — required once injected ledger corruption
	// can legally skew usage below the sum of outstanding charges; the
	// invariant auditor repairs the ledger exactly afterwards.
	offline       bool
	tolerateDrift bool
}

// New builds a scheduler over the given policy and LLC capacity; it
// panics on a nil policy. The waker, clock and timer are bound later
// (SetWaker, SetClock, SetTimer) because the machine is constructed with
// the gate as an argument; EnterPhase refuses a gate missing any of them.
func New(policy Policy, llcCapacity pp.Bytes) *Scheduler {
	if policy == nil {
		panic("core: nil policy")
	}
	return &Scheduler{
		policy:    policy,
		rm:        NewResourceMonitor(llcCapacity),
		reclaimed: make(map[periodKey]bool),
	}
}

// SetWaker binds the machine (or any Waker) used to resume paused
// threads.
func (s *Scheduler) SetWaker(w Waker) { s.waker = w }

// SetReserve withholds part of the LLC from admission decisions — the
// second extension in the paper's future work (§6): when LLC-intensive
// programs that declare no progress periods run alongside instrumented
// ones, the resource monitor cannot see their footprint, so a reservation
// leaves them headroom instead of letting admitted periods plan on cache
// they will not actually get. It panics on negative or over-capacity
// reservations (configuration error).
func (s *Scheduler) SetReserve(b pp.Bytes) {
	if b < 0 || b > s.rm.Capacity(pp.ResourceLLC) {
		panic(fmt.Sprintf("core: reserve %v outside [0, capacity]", b))
	}
	s.reserve = b
}

// Resources returns the resource monitor (read access for reports).
func (s *Scheduler) Resources() *ResourceMonitor { return s.rm }

// Stats returns a copy of the activity counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// Waitlisted returns the number of periods currently waiting.
func (s *Scheduler) Waitlisted() int { return s.waitlist.Len() }

// ActivePeriods returns the number of admitted periods.
func (s *Scheduler) ActivePeriods() int {
	n := 0
	s.reg.each(func(per *period) {
		if per.admitted {
			n++
		}
	})
	return n
}

// TrySchedule is Algorithm 1: given the demand of a period about to
// start, compute the space that would remain and ask the policy (the
// governor's effective policy when one is attached, the configured one
// otherwise). The load-zero safeguard admits a period whose demand alone
// exceeds the policy limit when nothing else is running — without it
// such a period would wait forever (a deviation documented in DESIGN.md;
// the paper's workloads keep every working set under the LLC capacity,
// so it never fires there).
func (s *Scheduler) TrySchedule(d pp.Demand) (runnable, safeguard bool) {
	r := d.Resource
	capacity := s.rm.Capacity(r)
	if r == pp.ResourceLLC {
		capacity -= s.reserve
	}
	remaining := capacity - s.rm.Usage(r)
	outcome := remaining - d.WorkingSet
	if s.effectivePolicy().Allows(outcome, capacity) {
		return true, false
	}
	if s.rm.Usage(r) == 0 {
		return true, true
	}
	return false, false
}

// tryScheduleAll runs Algorithm 1 for every demand a period declares: the
// period runs only when all targeted resources admit it. The safeguard
// applies per resource (an idle resource never blocks a lone period).
func (s *Scheduler) tryScheduleAll(ds []pp.Demand) (runnable, safeguard bool) {
	if s.offline {
		// Quarantined shard: nothing is admitted, not even by the
		// empty-load safeguard — a crashed shard with zero usage must not
		// resurrect itself by admitting the next arrival.
		return false, false
	}
	for _, d := range ds {
		run, sg := s.TrySchedule(d)
		if !run {
			return false, false
		}
		safeguard = safeguard || sg
	}
	return true, safeguard
}

// EnterPhase implements machine.Gate for a declared phase: the simulation
// image of pp_begin. The first thread of a process to arrive opens the
// period and runs Algorithm 1; siblings join an already-admitted period
// for free (the demand is per process-phase, counted once).
//
// Client misbehavior degrades instead of crashing: a double pp_begin from
// a thread already inside the period is counted and ignored, and a period
// declaring an invalid demand runs untracked under the stock scheduler
// (Stats.Rejected) rather than corrupting the load table.
func (s *Scheduler) EnterPhase(t *machine.Thread, phaseIdx int, ph *proc.Phase) bool {
	checkBound(s.waker, s.clock, s.timer)
	key := periodKey{t.Process().ID(), phaseIdx}
	per := s.reg.get(key)
	if in, ok := s.reg.inside(t.ID()); ok && in == key {
		s.stats.Rejected++
		s.emit(EventReject, per, key, ph.Demand())
		s.rrec(RecReject, per, nil)
		return true
	}
	if per == nil {
		per = s.reg.open(key)
		per.demands = ph.AppendDemands(per.demands)
		per.taskPool = t.Process().TaskPool()
		per.id = s.allocID()
		s.stats.Begins++
		s.emit(EventBegin, per, key, per.demands[0])
		s.rrec(RecBegin, per, nil)

		if checkDemands(per.demands) != nil {
			// Refuse to track the period; the thread runs under the stock
			// scheduler and its end releases nothing.
			per.untracked = true
			per.admitted = true
			per.admittedAt = s.clock()
			per.refs = 1
			s.reg.enter(t.ID(), key)
			s.stats.Rejected++
			s.emit(EventReject, per, key, per.demands[0])
			s.rrec(RecReject, per, func(r *ReplayRecord) {
				r.InsideAdd = []InsideEntry{insideEntry(t.ID(), key)}
			})
			return true
		}
		if s.govAdmit(key.procID, ph) == govAdmitQuarantined {
			// The misdeclaration breaker is open: the offender runs as
			// undeclared baseline — admitted untracked, declarations
			// ignored, no load charged — for the probation window. The
			// lease still applies so the registry stays bounded.
			per.untracked = true
			per.admitted = true
			per.admittedAt = s.clock()
			per.refs = 1
			s.reg.enter(t.ID(), key)
			s.emit(EventGovernorQuarantine, per, key, per.demands[0])
			s.armLease(per, s.govLease())
			s.rrec(RecQuarantine, per, func(r *ReplayRecord) {
				r.InsideAdd = []InsideEntry{insideEntry(t.ID(), key)}
			})
			return true
		}
		if s.reg.parked(key.procID) {
			// §3.4: the whole pool is disabled until resources free up.
			s.deny(per, t)
			return false
		}
		runnable, safeguard := s.tryScheduleAll(per.demands)
		if !runnable {
			s.deny(per, t)
			return false
		}
		if safeguard {
			s.stats.Safegrds++
		}
		s.admit(per)
		s.emit(EventAdmit, per, key, per.demands[0])
		per.refs = 1
		s.reg.enter(t.ID(), key)
		s.rrec(RecAdmit, per, func(r *ReplayRecord) {
			r.InsideAdd = []InsideEntry{insideEntry(t.ID(), key)}
		})
		return true
	}
	if per.admitted {
		per.refs++
		s.reg.enter(t.ID(), key)
		s.rrec(RecJoin, per, func(r *ReplayRecord) {
			r.InsideAdd = []InsideEntry{insideEntry(t.ID(), key)}
		})
		return true
	}
	per.waiters = append(per.waiters, t)
	s.rrec(RecWaitJoin, per, nil)
	return false
}

// checkBound refuses a gate that SetWaker, SetClock and SetTimer have
// not all bound: every wake, timestamp, wait, lease, deadline and tick
// reads them.
func checkBound(w Waker, c Clock, t Timer) {
	if w == nil || c == nil || t == nil {
		panic("core: gate not bound: call SetWaker, SetClock and SetTimer before the first EnterPhase")
	}
}

// allocID issues the next admission ID: from the set-wide counter when
// this scheduler is a DomainSet shard, from the private one otherwise.
func (s *Scheduler) allocID() pp.ID {
	if s.idSrc != nil {
		return s.idSrc()
	}
	s.nextID++
	return s.nextID
}

// checkDemand returns ErrInvalidDemand for a malformed or empty demand.
// Size is not judged here: an oversized period goes through the normal
// deny path, where the safeguard or fallback admission bounds its wait.
func checkDemand(d pp.Demand) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidDemand, err)
	}
	if d.WorkingSet == 0 {
		return fmt.Errorf("%w: zero working set", ErrInvalidDemand)
	}
	return nil
}

// checkDemands returns the first validation error among a period's
// demands.
func checkDemands(ds []pp.Demand) error {
	for _, d := range ds {
		if err := checkDemand(d); err != nil {
			return err
		}
	}
	return nil
}

// ExitPhase implements machine.Gate: the simulation image of pp_end. The
// last thread out closes the period, releases its demand, and rescans the
// waitlist — "processes that are paused ... may be rescheduled later when
// another progress period completes and releases sufficient resources".
//
// A pp_end whose period was already reclaimed by the lease watchdog — or
// that never had a begin — is counted (Stats.LateEnds) and dropped; the
// load it would release was either reclaimed already or never charged.
func (s *Scheduler) ExitPhase(t *machine.Thread, phaseIdx int, ph *proc.Phase) {
	key := periodKey{t.Process().ID(), phaseIdx}
	var insideDel []int
	if s.reg.leave(t.ID(), key) && s.rsink != nil {
		insideDel = []int{t.ID()}
	}
	per := s.reg.get(key)
	if per == nil {
		s.stats.LateEnds++
		s.emit(EventLateEnd, nil, key, ph.Demand())
		s.rrec(RecLateEnd, nil, func(r *ReplayRecord) { r.InsideDel = insideDel })
		return
	}
	if !per.admitted {
		// A thread cannot be running inside a period the predicate never
		// admitted: internal invariant, not client misbehavior.
		panic(fmt.Sprintf("core: ExitPhase on unadmitted period (proc %d phase %d)", key.procID, phaseIdx))
	}
	per.refs--
	if per.refs > 0 {
		s.rrec(RecLeave, per, func(r *ReplayRecord) { r.InsideDel = insideDel })
		return
	}
	s.unregister(per)
	if !per.untracked {
		for _, d := range per.demands {
			s.mustDecrement(d)
		}
	}
	s.stats.Ends++
	s.emit(EventEnd, per, key, per.demands[0])
	s.govObserve(EventEnd, 0)
	s.rrec(RecEnd, nil, func(r *ReplayRecord) {
		r.RemoveID = per.id
		r.InsideDel = insideDel
	})
	if per.leaseEv == nil && per.deadlineEv == nil {
		s.reg.recycle(per)
	}
	s.wakeWaitlist()
}

// unregister drops a period from the registry and cancels its pending
// lease timer.
func (s *Scheduler) unregister(per *period) {
	s.reg.remove(per)
	if per.leaseEv != nil {
		s.timer.Cancel(per.leaseEv)
		per.leaseEv = nil
	}
}

// wakeWaitlist admits pending periods in FIFO order while the policy
// allows, waking their blocked threads. Admission (the load increment)
// happens inside the scan so that each candidate is judged against the
// load *including* the periods just admitted before it.
//
// With a governor attached, an aging pass runs first: waiters whose
// demand-weighted priority crossed the threshold are probed before the
// FIFO scan, and an aged waiter that still does not fit takes a capacity
// reservation — the FIFO scan is skipped for this cascade so freed
// capacity accumulates for it. The inWake/rescan pair serializes
// cascades: a trigger arriving mid-scan (a governor degradation, a
// reentrant release) re-runs the scan instead of nesting it.
func (s *Scheduler) wakeWaitlist() {
	if s.inWake {
		s.rescan = true
		return
	}
	s.inWake = true
	defer func() { s.inWake = false }()
	for {
		s.rescan = false
		s.scanWaitlist()
		if !s.rescan {
			break
		}
	}
	if s.postWake != nil {
		// The cascade is complete and this shard's scan state is clear;
		// let the domain set run its cross-domain steal pass. The hook
		// guards its own reentry, so a steal that triggers further wakes
		// re-runs this cascade rather than nesting the scan.
		s.inWake = false
		s.postWake()
	}
}

// scanWaitlist is one pass of the wake cascade: the aging probe, then
// (unless an aged waiter took a reservation) the FIFO admission scan,
// then the release of everything admitted this pass.
func (s *Scheduler) scanWaitlist() {
	var reserved bool
	s.woken, reserved = s.wakeAged(s.woken[:0])
	if !reserved && s.waitlist.Len() > 0 {
		s.woken = s.waitlist.WakeAll(s.woken, func(per *period) bool {
			runnable, safeguard := s.tryScheduleAll(per.demands)
			if !runnable {
				return false
			}
			if safeguard {
				s.stats.Safegrds++
			}
			s.admit(per)
			s.emit(EventWake, per, per.key, per.demands[0])
			return true
		})
	}
	for _, per := range s.woken {
		s.reg.unpark(per.key.procID)
		s.cancelDeadline(per)
		s.govObserve(EventWake, s.noteWait(per))
		ws := per.waiters
		s.release(per)
		s.rrec(RecWake, per, func(r *ReplayRecord) {
			for _, t := range ws {
				r.InsideAdd = append(r.InsideAdd, insideEntry(t.ID(), per.key))
			}
			r.ParkedDel = []int{per.key.procID}
		})
	}
}

// release hands an admitted period's blocked threads back to the default
// scheduler.
func (s *Scheduler) release(per *period) {
	per.refs = len(per.waiters)
	ws := per.waiters
	per.waiters = ws[:0] // an admitted period gains no waiters; keep the array for reuse
	for _, t := range ws {
		s.stats.Woken++
		s.reg.enter(t.ID(), per.key)
		s.waker.Unblock(t)
	}
}

func (s *Scheduler) admit(per *period) {
	for _, d := range per.demands {
		s.mustIncrement(d)
	}
	per.admitted = true
	per.admittedAt = s.clock()
	s.stats.Admitted++
	s.armLease(per, s.govLease())
}

func (s *Scheduler) deny(per *period, t *machine.Thread) {
	per.waiters = append(per.waiters, t)
	if per.ticket != 0 {
		// Woken (dequeued for an admission probe) and re-denied in the
		// same release cascade: restore the original position under the
		// original ticket. The wait clock (enqueuedAt) and the pending
		// admission deadline keep running — re-denial must not reset how
		// long the period has already waited.
		s.waitlist.EnqueueAs(per, per.ticket)
	} else {
		per.ticket = s.waitlist.Enqueue(per)
		per.enqueuedAt = s.clock()
		s.armDeadline(per, s.deadline)
	}
	s.stats.Denied++
	s.emit(EventDeny, per, per.key, per.demands[0])
	s.govObserve(EventDeny, 0)
	if per.taskPool {
		s.reg.park(per.key.procID)
	}
	s.rrec(RecDeny, per, func(r *ReplayRecord) {
		if per.taskPool {
			r.ParkedAdd = []int{per.key.procID}
		}
	})
}

// mustIncrement and mustDecrement are the scheduler's internal load-table
// accessors: demands on these paths were validated at EnterPhase and
// every decrement matches a prior increment, so an error here is an
// accounting bug and panics.
func (s *Scheduler) mustIncrement(d pp.Demand) {
	if err := s.rm.Increment(d); err != nil {
		panic(err)
	}
}

func (s *Scheduler) mustDecrement(d pp.Demand) {
	if err := s.rm.Decrement(d); err != nil {
		if s.tolerateDrift && errors.Is(err, ErrLoadUnderflow) {
			// Injected ledger corruption can pull usage below the sum of
			// outstanding charges; clamp instead of panicking and let the
			// auditor restore the exact ledger.
			s.rm.usage[d.Resource] = 0
			return
		}
		panic(err)
	}
}
