package core

import (
	"fmt"
	"sort"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/proc"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
)

// Multi-domain scheduling. The paper's admission control guards one
// shared LLC budget; production machines split cores into several LLC
// domains (sockets, CCXs), each with its own capacity to fill and its
// own waitlist to drain. A DomainSet shards the scheduler accordingly:
// N per-domain Schedulers — each with its own ResourceMonitor, waitlist,
// lease table, and governor ladder — behind a single machine.Gate, plus
// two cross-domain mechanisms:
//
//   - Demand-aware placement. A new period is assigned to a domain at
//     its first pp_begin: best fit by the remaining outcome Algorithm 1
//     would leave (pack tight, keep the big holes open for big demands),
//     falling back to the least-loaded domain when nowhere admits right
//     now. The decision reads only per-shard monitor state — itself a
//     deterministic function of the virtual-clock history — so placement
//     is reproducible across runs and worker counts.
//
//   - Cross-domain steal. After every wake cascade, waitlisted periods
//     that have aged past StealAge are migrated, oldest first across the
//     whole set, to any other domain that can admit them immediately.
//     The period object moves wholesale — same admission ID, same
//     ticket, same enqueue timestamp — so its wait clock never resets
//     and MaxWait measures the true wait. One hot domain therefore
//     cannot starve its backlog while its peers idle.
//
// A single-domain set installs neither mechanism and delegates every
// call to its one shard, which makes Domains=1 structurally identical
// to the unsharded scheduler (the differential suite in internal/perf
// pins this byte for byte).
//
// The domains shard the *admission* budget; the machine model's
// contention stays global (one physical LLC in the simulated Table 1
// machine). That is the conservative direction: any makespan a sharded
// configuration wins in E6, it wins despite paying full global
// contention for the extra parallelism it admits.

// DefaultStealAge is the steal pass's age bar when DomainConfig leaves
// StealAge zero: sized for the paper's workload timescale (runs of
// virtual seconds); harnesses that shrink workloads scale it alongside
// (see experiments.RunDomains).
const DefaultStealAge = 10 * sim.Millisecond

// DomainConfig sizes a DomainSet.
type DomainConfig struct {
	// Domains is the number of LLC domains; NewDomainSet rejects values
	// <= 0 (1 runs the unsharded scheduler behind the set's gate).
	Domains int
	// StealAge is how long a waitlisted period must have aged on the
	// virtual clock before the steal pass may migrate it cross-domain.
	// 0 selects DefaultStealAge; negative values are rejected — set
	// DisableSteal to turn the pass off.
	StealAge sim.Duration
	// DisableSteal turns the cross-domain steal pass off entirely.
	DisableSteal bool
}

// Validate reports whether the configuration can build a DomainSet;
// every violation wraps ErrInvalidDomainConfig.
func (c DomainConfig) Validate() error {
	if c.Domains <= 0 {
		return fmt.Errorf("%w: Domains %d (want >= 1)", ErrInvalidDomainConfig, c.Domains)
	}
	if c.StealAge < 0 {
		return fmt.Errorf("%w: negative StealAge %v (set DisableSteal to disable stealing)",
			ErrInvalidDomainConfig, c.StealAge)
	}
	return nil
}

// stealAge resolves the configured age bar (0 = disabled).
func (c DomainConfig) stealAge() sim.Duration {
	switch {
	case c.DisableSteal:
		return 0
	case c.StealAge == 0:
		return DefaultStealAge
	default:
		return c.StealAge
	}
}

// DomainStat is one domain's end-of-run snapshot.
type DomainStat struct {
	Domain     int
	Capacity   pp.Bytes
	Load       pp.Bytes
	Peak       pp.Bytes
	Active     int
	Waitlisted int
	Stats      Stats
}

// DomainStats summarizes a DomainSet's cross-domain activity.
type DomainStats struct {
	Domains    int
	Placements uint64 // periods assigned by the placer (zero at Domains=1: no decision to make)
	Steals     uint64 // aged waiters migrated cross-domain
	PerDomain  []DomainStat
}

// DomainSet is N per-domain schedulers behind one machine.Gate. It is
// single-goroutine like the Scheduler it shards.
type DomainSet struct {
	cfg    DomainConfig
	shards []*Scheduler
	single bool // one domain: pure delegation, placer and steal disengaged

	nextID   pp.ID
	domainOf map[periodKey]int // period → owning domain, while registered
	demBuf   []pp.Demand       // placement scratch: the arriving phase's demands

	placements uint64
	steals     uint64

	timer    Timer
	clock    Clock
	sinks    []EventSink
	reg      *telemetry.Registry // bound by SetMetrics; recovery histogram source
	stealing bool                // reentry guard for the steal scan (and Quiesce suppression)
	stealEv  *sim.Event          // pending not-yet-aged re-scan tick
	rsink    ReplaySink          // admission journal (replay.go); nil when none is attached

	// Fault and recovery state; nil until EnableRecovery
	// (domain_recovery.go).
	rec *recovery
}

// NewDomainSet partitions an LLC budget into cfg.Domains equal shards
// (remainder bytes go to the low-index domains) and builds one
// Scheduler per domain under the shared policy; like New, it panics on
// a nil policy. Bind the machine with SetWaker/SetClock/SetTimer exactly
// as for a Scheduler. An invalid configuration returns
// ErrInvalidDomainConfig instead of deferring the failure to some later
// admission path.
func NewDomainSet(policy Policy, llcCapacity pp.Bytes, cfg DomainConfig) (*DomainSet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &DomainSet{
		cfg:      cfg,
		single:   cfg.Domains == 1,
		domainOf: make(map[periodKey]int),
	}
	for i := 0; i < cfg.Domains; i++ {
		s := New(policy, splitShare(llcCapacity, i, cfg.Domains))
		if !d.single {
			s.idSrc = d.allocID
			s.domainIdx = i
			s.postWake = d.stealScan
		}
		d.shards = append(d.shards, s)
	}
	return d, nil
}

// splitShare is the deterministic n-way byte split: floor(total/n) per
// domain, with the remainder going one byte each to the low indices.
// It is monotone in total, so any reserve <= total splits into
// per-domain reserves <= per-domain capacities.
func splitShare(total pp.Bytes, i, n int) pp.Bytes {
	share := total / pp.Bytes(n)
	if pp.Bytes(i) < total-share*pp.Bytes(n) {
		share++
	}
	return share
}

func (d *DomainSet) allocID() pp.ID {
	d.nextID++
	return d.nextID
}

// NumDomains returns the number of domains.
func (d *DomainSet) NumDomains() int { return len(d.shards) }

// SetWaker binds the machine used to resume paused threads.
func (d *DomainSet) SetWaker(w Waker) {
	for _, s := range d.shards {
		s.SetWaker(w)
	}
}

// SetClock binds the timestamp source for every shard and for the
// steal pass's age computation.
func (d *DomainSet) SetClock(c Clock) {
	d.clock = c
	for _, s := range d.shards {
		s.SetClock(c)
	}
}

// SetTimer binds the event engine for leases, admission deadlines, the
// steal pass's aging tick, and (when recovery is enabled) the audit and
// evacuation-retry ticks.
func (d *DomainSet) SetTimer(t Timer) {
	d.timer = t
	for _, s := range d.shards {
		s.SetTimer(t)
	}
	d.armAuditTick()
}

// SetLease configures the period lease on every shard.
func (d *DomainSet) SetLease(v sim.Duration) {
	for _, s := range d.shards {
		s.SetLease(v)
	}
}

// SetAdmissionDeadline configures fallback admission on every shard.
func (d *DomainSet) SetAdmissionDeadline(v sim.Duration) {
	for _, s := range d.shards {
		s.SetAdmissionDeadline(v)
	}
}

// SetReserve splits an unmanaged-workload reservation across the
// domains the same way the capacity was split.
func (d *DomainSet) SetReserve(b pp.Bytes) {
	for i, s := range d.shards {
		s.SetReserve(splitShare(b, i, len(d.shards)))
	}
}

// SetResourceCapacity splits a secondary resource budget (memory
// bandwidth) across the domains, mirroring the LLC partition.
func (d *DomainSet) SetResourceCapacity(r pp.Resource, total pp.Bytes) {
	for i, s := range d.shards {
		s.Resources().SetCapacity(r, splitShare(total, i, len(d.shards)))
	}
}

// EnableGovernor attaches an independent governor ladder to every shard
// (each domain degrades and recovers on its own pressure).
func (d *DomainSet) EnableGovernor(cfg GovernorConfig) {
	for _, s := range d.shards {
		s.EnableGovernor(cfg)
	}
}

// SetMetrics binds one registry to every shard: histograms are shared
// instruments, so each decision lands in the same distribution. The
// set keeps the handle for the recovery layer's time-to-recover
// histogram.
func (d *DomainSet) SetMetrics(reg *telemetry.Registry) {
	d.reg = reg
	for _, s := range d.shards {
		s.SetMetrics(reg)
	}
}

// AddSink subscribes a sink to every shard's decision stream and to the
// set's own placement/steal events. Events arrive in virtual-time order
// because every shard emits synchronously on the same goroutine.
func (d *DomainSet) AddSink(sink EventSink) {
	if sink == nil {
		return
	}
	d.sinks = append(d.sinks, sink)
	for _, s := range d.shards {
		s.AddSink(sink)
	}
}

// EnterPhase implements machine.Gate: route to the period's domain,
// placing it first if this is its opening pp_begin. Like the
// Scheduler's, it refuses a set that SetWaker, SetClock and SetTimer
// have not bound; a single-domain set's shard makes that check.
func (d *DomainSet) EnterPhase(t *machine.Thread, phaseIdx int, ph *proc.Phase) bool {
	if d.single {
		return d.shards[0].EnterPhase(t, phaseIdx, ph)
	}
	checkBound(d.shards[0].waker, d.clock, d.timer)
	key := periodKey{t.Process().ID(), phaseIdx}
	di, ok := d.domainOf[key]
	if !ok {
		d.demBuf = ph.AppendDemands(d.demBuf[:0])
		di = d.place(d.demBuf)
		d.domainOf[key] = di
		d.placements++
		d.emitDomain(EventPlace, di, key, ph.Demand())
		d.rrecSet(RecPlace, func(r *ReplayRecord) {
			r.Set.MapAdd = []PlacementEntry{{Proc: key.procID, Phase: key.phaseIdx, Domain: di}}
		})
	}
	return d.shards[di].EnterPhase(t, phaseIdx, ph)
}

// ExitPhase implements machine.Gate: route to the owning domain and
// drop the routing entry once the shard no longer has the period
// registered. An end with no routing entry (long after a reclaim
// already dropped it) goes to the first domain remembering the key as
// reclaimed, so it is counted as a late end rather than a new one.
func (d *DomainSet) ExitPhase(t *machine.Thread, phaseIdx int, ph *proc.Phase) {
	if d.single {
		d.shards[0].ExitPhase(t, phaseIdx, ph)
		return
	}
	key := periodKey{t.Process().ID(), phaseIdx}
	di, ok := d.domainOf[key]
	if !ok {
		di = d.lateDomain(key)
	}
	s := d.shards[di]
	s.ExitPhase(t, phaseIdx, ph)
	if ok && s.reg.get(key) == nil {
		delete(d.domainOf, key)
		d.rrecSet(RecUnmap, func(r *ReplayRecord) {
			r.Set.MapDel = []ProcPhase{{Proc: key.procID, Phase: key.phaseIdx}}
		})
	}
}

func (d *DomainSet) lateDomain(key periodKey) int {
	for i, s := range d.shards {
		if s.reclaimed[key] {
			return i
		}
	}
	return 0
}

// place chooses the domain for a new period: the best fit among the
// domains whose predicate admits the demands right now (fitTarget, with
// no source to skip and no owner breaker to consult: the shard's own
// EnterPhase runs the quarantine). When nowhere admits, the period
// waitlists on the least-loaded online domain, where capacity frees
// soonest; with every shard offline it parks on shard 0 and waits out
// the quarantine there. Every input is per-shard monitor state, so the
// choice is deterministic.
func (d *DomainSet) place(ds []pp.Demand) int {
	if di, ok := d.fitTarget(ds, -1, -1); ok {
		return di
	}
	return max(d.leastLoadedOnline(-1), 0)
}

// remainingAfter is the outcome Algorithm 1 computes for demand dm on
// this shard: capacity minus reserve minus load minus the demand.
func (s *Scheduler) remainingAfter(dm pp.Demand) pp.Bytes {
	capacity := s.rm.Capacity(dm.Resource)
	if dm.Resource == pp.ResourceLLC {
		capacity -= s.reserve
	}
	return capacity - s.rm.Usage(dm.Resource) - dm.WorkingSet
}

func (d *DomainSet) loadFrac(i int) float64 {
	s := d.shards[i]
	c := s.rm.Capacity(pp.ResourceLLC)
	if c <= 0 {
		return 0
	}
	return float64(s.rm.Usage(pp.ResourceLLC)) / float64(c)
}

// stealCandidate pairs a waiter the steal pass or the evacuation retry
// may move with its source domain.
type stealCandidate struct {
	per *period
	src int
}

// sortCandidates orders moves oldest enqueue first, then by source
// domain, then by ticket.
func sortCandidates(cands []stealCandidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.per.enqueuedAt != b.per.enqueuedAt {
			return a.per.enqueuedAt < b.per.enqueuedAt
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.per.ticket < b.per.ticket
	})
}

// stealScan is the cross-domain steal pass, run (as each shard's
// postWake hook) after every wake cascade: waitlisted periods aged past
// StealAge are migrated, oldest enqueue first across the whole set, to
// a domain that can admit them immediately. Each migration changes two
// monitors, so the candidate list is rebuilt after every move until a
// full pass moves nothing. When candidates exist but none has aged
// yet, a timer tick re-runs the scan the moment the youngest crosses
// the bar — covering the stall where a domain sits idle, a neighbor's
// waiter ages, and no further event would otherwise trigger a scan.
func (d *DomainSet) stealScan() {
	age := d.cfg.stealAge()
	if d.single || d.stealing || age <= 0 {
		return
	}
	d.stealing = true
	defer func() { d.stealing = false }()
	for {
		now := d.clock()
		var cands []stealCandidate
		wait := sim.Duration(-1) // deficit until the next candidate ages
		for si, s := range d.shards {
			si, s := si, s
			if s.offline {
				// A quarantined shard's backlog belongs to the recovery
				// path (evacuation / retry), not the steal pass.
				continue
			}
			s.waitlist.Each(func(per *period, _ uint64) {
				if s.breakerBlocked(per.key.procID) {
					// The owner's misdeclaration breaker is open: stealing
					// would admit the period on a shard that never saw the
					// strikes, re-entering admission around the quarantine.
					return
				}
				w := now.DurationSince(per.enqueuedAt)
				if w >= age {
					cands = append(cands, stealCandidate{per: per, src: si})
				} else if deficit := age - w; wait < 0 || deficit < wait {
					wait = deficit
				}
			})
		}
		sortCandidates(cands)
		moved := false
		for _, c := range cands {
			if di, ok := d.fitTarget(c.per.demands, c.per.key.procID, c.src); ok {
				d.migrate(c.per, c.src, di, EventSteal)
				moved = true
				break
			}
		}
		if moved {
			continue
		}
		if wait >= 0 {
			d.armStealTick(wait)
		}
		return
	}
}

// fitTarget picks a domain for demands of process proc leaving shard
// src: the best fit — the smallest remaining outcome, so small periods
// pack into busy domains and large holes stay open for large demands —
// among the *other* online domains that admit the demands right now and
// have not quarantined proc (src's own wake scan already had its
// chance). Ties break toward the lower index. The placer passes -1 for
// both, the steal pass and the evacuation path the moving period's.
func (d *DomainSet) fitTarget(demands []pp.Demand, proc, src int) (int, bool) {
	best, bestOut := -1, pp.Bytes(0)
	for i, s := range d.shards {
		if i == src || s.offline || s.breakerBlocked(proc) {
			continue
		}
		if run, _ := s.tryScheduleAll(demands); !run {
			continue
		}
		out := s.remainingAfter(demands[0])
		if best == -1 || out < bestOut {
			best, bestOut = i, out
		}
	}
	return best, best >= 0
}

// breakerBlocked reports whether a process's misdeclaration breaker is
// open on this shard (false without a governor): such a process must
// not re-enter tracked admission through a cross-shard migration.
func (s *Scheduler) breakerBlocked(procID int) bool {
	if s.gov == nil {
		return false
	}
	return s.BreakerState(procID, s.clock()) == BreakerOpen
}

// armStealTick schedules a re-scan for when the youngest waiter will
// have aged; at most one tick is pending.
func (d *DomainSet) armStealTick(in sim.Duration) {
	if d.stealEv != nil {
		return
	}
	if in < 1 {
		in = 1 // next engine step, never this instant
	}
	d.stealEv = d.timer.After(in, d.stealTick)
	d.rrecSet(RecStealTick, nil)
}

// stealTick is the armed re-scan callback. Both the arm and the fire
// are journaled so a restore reconstructs the pending tick exactly: the
// fire record clears the persisted StealTickAt (the event is gone), and
// any re-arm inside stealScan journals the new one.
func (d *DomainSet) stealTick() {
	d.stealEv = nil
	d.rrecSet(RecStealTick, nil)
	d.stealScan()
}

// migrate moves a waiter from domain si to di and admits it there;
// kind records the reason (EventSteal for the aging pass, EventEvacuate
// for the recovery path). The period object moves wholesale: its
// admission ID, ticket, and enqueue timestamp are untouched, so the
// wait clock (MaxWait, the wake event's Wait, the governor's pressure
// window) measures the full wait — a migration never resets how long
// the period already waited. The pending admission deadline is
// cancelled exactly as a wake would: the migration *is* the admission.
func (d *DomainSet) migrate(per *period, si, di int, kind EventKind) {
	dst := d.moveWaiter(per, si, di)
	if kind == EventEvacuate {
		d.rec.stats.Evacuations++
	} else {
		d.steals++
	}
	d.emitDomain(kind, di, per.key, per.demands[0])
	runnable, safeguard := dst.tryScheduleAll(per.demands)
	if !runnable {
		panic(fmt.Sprintf("core: migration destination %d cannot admit period %d", di, per.id))
	}
	if safeguard {
		dst.stats.Safegrds++
	}
	dst.admit(per)
	dst.emit(EventWake, per, per.key, per.demands[0])
	dst.govObserve(EventWake, dst.noteWait(per))
	ws := per.waiters
	dst.release(per)
	dst.rrec(RecSteal, per, func(r *ReplayRecord) {
		r.Src = si
		r.SrcParkedDel = []int{per.key.procID}
		for _, t := range ws {
			r.InsideAdd = append(r.InsideAdd, insideEntry(t.ID(), per.key))
		}
		if r.Set != nil {
			r.Set.MapAdd = append(r.Set.MapAdd, PlacementEntry{Proc: per.key.procID, Phase: per.key.phaseIdx, Domain: di})
		}
	})
}

// moveWaiter takes waiter per off domain si — its waitlist entry,
// registration, parked pool and pending deadline — and registers it on
// domain di, which the caller then admits it to or queues it on.
func (d *DomainSet) moveWaiter(per *period, si, di int) *Scheduler {
	src, dst := d.shards[si], d.shards[di]
	if !src.waitlist.Remove(per.ticket) {
		panic(fmt.Sprintf("core: moving period %d not on domain %d waitlist", per.id, si))
	}
	src.reg.remove(per)
	src.reg.unpark(per.key.procID)
	src.cancelDeadline(per)
	dst.reg.add(per)
	d.domainOf[per.key] = di
	return dst
}

// emitDomain publishes a placement or steal decision to the set's
// sinks. Load is the destination domain's LLC load at emission (before
// the admission for both kinds); ID is 0 for placements — the period
// does not exist until the shard's EnterPhase opens it.
func (d *DomainSet) emitDomain(kind EventKind, di int, key periodKey, dm pp.Demand) {
	if len(d.sinks) == 0 {
		return
	}
	s := d.shards[di]
	e := Event{
		At: d.clock(), Kind: kind, Proc: key.procID, Phase: key.phaseIdx,
		Demand: dm, Load: s.rm.Usage(pp.ResourceLLC), Domain: di,
	}
	if per := s.reg.get(key); per != nil {
		e.ID = per.id
	}
	for _, sink := range d.sinks {
		sink.Record(e)
	}
}

// Stats returns the global activity totals: counters sum across
// domains, MaxWait is the maximum.
func (d *DomainSet) Stats() Stats {
	var out Stats
	for _, s := range d.shards {
		st := s.stats
		out.Begins += st.Begins
		out.Ends += st.Ends
		out.Admitted += st.Admitted
		out.Denied += st.Denied
		out.Woken += st.Woken
		out.Safegrds += st.Safegrds
		out.Reclaimed += st.Reclaimed
		out.ReclaimedBytes += st.ReclaimedBytes
		out.Fallbacks += st.Fallbacks
		out.Rejected += st.Rejected
		out.LateEnds += st.LateEnds
		if st.MaxWait > out.MaxWait {
			out.MaxWait = st.MaxWait
		}
	}
	return out
}

// GovernorStats returns the governor counters summed across domains.
func (d *DomainSet) GovernorStats() GovernorStats {
	var out GovernorStats
	for _, s := range d.shards {
		gs := s.GovernorStats()
		out.Degradations += gs.Degradations
		out.Recoveries += gs.Recoveries
		out.Strikes += gs.Strikes
		out.Quarantines += gs.Quarantines
		out.QuarantinedAdmits += gs.QuarantinedAdmits
		out.Probes += gs.Probes
		out.Restores += gs.Restores
		out.Reservations += gs.Reservations
		out.AgedWakes += gs.AgedWakes
		out.Tightened += gs.Tightened
	}
	return out
}

// ActivePeriods returns the number of admitted periods across all
// domains.
func (d *DomainSet) ActivePeriods() int {
	n := 0
	for _, s := range d.shards {
		n += s.ActivePeriods()
	}
	return n
}

// DomainStats returns the set-wide summary plus one snapshot per
// domain.
func (d *DomainSet) DomainStats() DomainStats {
	out := DomainStats{
		Domains:    len(d.shards),
		Placements: d.placements,
		Steals:     d.steals,
	}
	for i, s := range d.shards {
		out.PerDomain = append(out.PerDomain, DomainStat{
			Domain:     i,
			Capacity:   s.rm.Capacity(pp.ResourceLLC),
			Load:       s.rm.Usage(pp.ResourceLLC),
			Peak:       s.rm.Peak(pp.ResourceLLC),
			Active:     s.ActivePeriods(),
			Waitlisted: s.Waitlisted(),
			Stats:      s.Stats(),
		})
	}
	return out
}

// Quiesce force-reclaims every registered period, domain by domain in
// index order (admission-ID order within each). The steal pass is
// suppressed for the duration: the run is over, and migrating a waiter
// into a domain whose reclamation already ran would leave load behind
// the zero-residue check.
func (d *DomainSet) Quiesce() int {
	d.stealing = true
	defer func() { d.stealing = false }()
	if d.rec != nil {
		// Repair any outstanding ledger drift first: Quiesce's zero-
		// residue check asserts the *exact* ledger, and an uncorrected
		// corruption skew would trip it (or hide a real leak).
		d.runAudit(false)
	}
	n := 0
	for _, s := range d.shards {
		n += s.Quiesce()
	}
	return n
}

// PublishStats writes the global aggregate under the same rda_* names
// the unsharded scheduler publishes, then (at two or more domains) the
// rda_domain_* family: placement/steal totals and per-domain
// load/peak/waitlist/admitted instruments. A single-domain set
// delegates to its shard, producing byte-identical expositions to the
// unsharded scheduler.
func (d *DomainSet) PublishStats(reg *telemetry.Registry) {
	if d.single {
		d.shards[0].PublishStats(reg)
		return
	}
	var load pp.Bytes
	for _, s := range d.shards {
		load += s.rm.Usage(pp.ResourceLLC)
	}
	publishSchedStats(reg, d.Stats(), d.ActivePeriods(), load)
	if d.shards[0].gov != nil {
		level := GovNormal
		for _, s := range d.shards {
			if l, ok := s.Governor(); ok && l > level {
				level = l
			}
		}
		publishGovernorStats(reg, d.GovernorStats(), level)
	}
	reg.Counter(MetricDomainPlacements).Add(d.placements)
	reg.Counter(MetricDomainSteals).Add(d.steals)
	for i, s := range d.shards {
		suffix := fmt.Sprintf("_%d", i)
		reg.Gauge(MetricDomainLoadBytes + suffix).Set(float64(s.rm.Usage(pp.ResourceLLC)))
		reg.Gauge(MetricDomainPeakBytes + suffix).Set(float64(s.rm.Peak(pp.ResourceLLC)))
		reg.Gauge(MetricDomainWaitlist + suffix).Set(float64(s.Waitlisted()))
		reg.Counter(MetricDomainAdmitted + suffix + "_total").Add(s.stats.Admitted)
	}
	if d.rec != nil {
		publishRecoveryStats(reg, d.rec.stats)
	}
}
