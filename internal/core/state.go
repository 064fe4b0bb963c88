package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"rdasched/internal/machine"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// Checkpointable scheduler state. The crash-restart machinery
// (internal/persist) snapshots the full admission gate — load ledger,
// registry, waitlists with tickets and enqueue times, lease and deadline
// expiries, governor ladder/breaker/probation state, per-domain shards —
// as a pure-data State value, and restores it into a freshly built
// scheduler bound to the surviving machine. Everything is plain exported
// structs with deterministically ordered slices (no maps), so the JSON
// encoding is canonical: two States describing the same gate marshal to
// identical bytes, which is what the restore consistency check and the
// snapshot round-trip fuzz target compare.
//
// Timer state is stored as absolute virtual-clock expiries (zero =
// unarmed). Import re-arms each timer at its original expiry, in
// period-ID order within a domain and domain-index order across shards,
// so the revived run schedules engine events in a deterministic order.
// The re-armed events necessarily carry fresh engine sequence numbers;
// an exact-picosecond tie between a re-armed timer and a pre-existing
// event could therefore order differently than in an uninterrupted run
// (measure-zero in practice; the E9 golden would catch it).

// ProcPhase is the exported image of a period key: one process entering
// one declared phase.
type ProcPhase struct {
	Proc  int
	Phase int
}

// InsideEntry records one thread currently executing inside a period.
type InsideEntry struct {
	Thread int
	Proc   int
	Phase  int
}

// PeriodState is the exported image of one registry entry. Timer fields
// are absolute expiries on the virtual clock; zero means unarmed.
type PeriodState struct {
	ID         pp.ID
	Proc       int
	Phase      int
	Demands    []pp.Demand
	TaskPool   bool
	Admitted   bool
	Untracked  bool
	Evacuated  bool
	Refs       int
	Waiters    []int // blocked thread IDs in arrival order
	Ticket     uint64
	EnqueuedAt sim.Time
	AdmittedAt sim.Time
	LeaseAt    sim.Time
	DeadlineAt sim.Time
}

// waitlisted reports whether this period is on its domain's waitlist:
// it holds a ticket and has not been admitted. The waitlist itself is
// derived state — membership and order follow entirely from the
// registry — so State stores no separate queue.
func (ps *PeriodState) waitlisted() bool { return ps.Ticket != 0 && !ps.Admitted }

// BreakerSnap is one process's misdeclaration breaker.
type BreakerSnap struct {
	Proc     int
	State    BreakerState
	Strikes  int
	OpenedAt sim.Time
}

// GovState is the exported image of an attached governor: the ladder
// position, both hysteresis clocks, the windowed signals (including the
// full wait histogram), every breaker, the pending self-evaluation tick
// (absolute; zero = unarmed), and the counters.
type GovState struct {
	Level         GovernorLevel
	Pressured     bool
	PressureSince sim.Time
	Calm          bool
	CalmSince     sim.Time
	WindowStart   sim.Time
	WinFallbacks  int
	WinReclaims   int
	WaitCounts    []uint32
	WaitTotal     uint32
	Breakers      []BreakerSnap
	NextTickAt    sim.Time
	Stats         GovernorStats
}

// DomainState is the exported image of one Scheduler (an unsharded
// scheduler, or one shard of a DomainSet).
type DomainState struct {
	NextID    pp.ID // private counter; zero on DomainSet shards (set-wide counter)
	Capacity  []pp.Bytes
	Usage     []pp.Bytes
	Peak      []pp.Bytes
	Reserve   pp.Bytes
	Periods   []PeriodState // sorted by ID
	WaitSeq   uint64
	Parked    []int       // sorted
	Reclaimed []ProcPhase // sorted
	Inside    []InsideEntry
	Stats     Stats
	Gov       *GovState
	Offline   bool
}

// PlacementEntry maps one period key to its owning domain.
type PlacementEntry struct {
	Proc   int
	Phase  int
	Domain int
}

// SetState is the DomainSet-level state above the shards.
type SetState struct {
	NextID      pp.ID
	DomainOf    []PlacementEntry // sorted by (Proc, Phase)
	Placements  uint64
	Steals      uint64
	StealTickAt sim.Time // pending steal re-scan tick; zero = unarmed
}

// State is the full checkpointable image of an admission gate at one
// virtual time: one domain for an unsharded Scheduler, N plus the set
// state for a DomainSet.
type State struct {
	At      sim.Time
	Domains []DomainState
	Set     *SetState
}

// Canonical returns the canonical JSON encoding of the state. Slices
// are kept deterministically ordered by the export/apply paths and the
// structs contain no maps, so equal states produce identical bytes.
func (st *State) Canonical() ([]byte, error) { return json.Marshal(st) }

// ThreadResolver re-links persisted thread IDs to live machine threads
// on import; machine.Machine's ThreadByID satisfies it.
type ThreadResolver func(id int) *machine.Thread

func exportPeriod(per *period) PeriodState {
	ps := PeriodState{
		ID:         per.id,
		Proc:       per.key.procID,
		Phase:      per.key.phaseIdx,
		Demands:    append([]pp.Demand(nil), per.demands...),
		TaskPool:   per.taskPool,
		Admitted:   per.admitted,
		Untracked:  per.untracked,
		Evacuated:  per.evacuated,
		Refs:       per.refs,
		Ticket:     per.ticket,
		EnqueuedAt: per.enqueuedAt,
		AdmittedAt: per.admittedAt,
	}
	for _, t := range per.waiters {
		ps.Waiters = append(ps.Waiters, t.ID())
	}
	if per.leaseEv != nil && !per.leaseEv.Cancelled() {
		ps.LeaseAt = per.leaseEv.When()
	}
	if per.deadlineEv != nil && !per.deadlineEv.Cancelled() {
		ps.DeadlineAt = per.deadlineEv.When()
	}
	return ps
}

func exportGov(g *governor) GovState {
	gs := GovState{
		Level:         g.level,
		Pressured:     g.pressured,
		PressureSince: g.pressureSince,
		Calm:          g.calm,
		CalmSince:     g.calmSince,
		WindowStart:   g.windowStart,
		WinFallbacks:  g.winFallbacks,
		WinReclaims:   g.winReclaims,
		WaitCounts:    append([]uint32(nil), g.waits.counts[:]...),
		WaitTotal:     g.waits.total,
		Stats:         g.stats,
	}
	for p, b := range g.breakers {
		if b != nil {
			gs.Breakers = append(gs.Breakers, BreakerSnap{Proc: p, State: b.state, Strikes: b.strikes, OpenedAt: b.openedAt})
		}
	}
	if g.tickEv != nil && !g.tickEv.Cancelled() {
		gs.NextTickAt = g.tickEv.When()
	}
	return gs
}

// exportDomain captures this scheduler's full state as pure data.
func (s *Scheduler) exportDomain() DomainState {
	d := DomainState{
		NextID:   s.nextID,
		Capacity: append([]pp.Bytes(nil), s.rm.capacity[:]...),
		Usage:    append([]pp.Bytes(nil), s.rm.usage[:]...),
		Peak:     append([]pp.Bytes(nil), s.rm.peak[:]...),
		Reserve:  s.reserve,
		WaitSeq:  s.waitlist.Seq(),
		Stats:    s.stats,
		Offline:  s.offline,
	}
	s.reg.export(&d)
	for k := range s.reclaimed {
		d.Reclaimed = append(d.Reclaimed, ProcPhase{Proc: k.procID, Phase: k.phaseIdx})
	}
	sortProcPhases(d.Reclaimed)
	if s.gov != nil {
		g := exportGov(s.gov)
		d.Gov = &g
	}
	return d
}

func sortProcPhases(ks []ProcPhase) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].Proc != ks[j].Proc {
			return ks[i].Proc < ks[j].Proc
		}
		return ks[i].Phase < ks[j].Phase
	})
}

// ExportState captures the scheduler's state at the current virtual
// time (single unsharded domain).
func (s *Scheduler) ExportState() State {
	return State{At: s.now(), Domains: []DomainState{s.exportDomain()}}
}

// ExportState captures the full set state: every shard plus the
// placement map, cross-domain counters, and the pending steal tick.
func (d *DomainSet) ExportState() State {
	var at sim.Time
	if d.clock != nil {
		at = d.clock()
	}
	st := State{At: at, Set: &SetState{
		NextID:     d.nextID,
		Placements: d.placements,
		Steals:     d.steals,
	}}
	for _, s := range d.shards {
		st.Domains = append(st.Domains, s.exportDomain())
	}
	for k, di := range d.domainOf {
		st.Set.DomainOf = append(st.Set.DomainOf, PlacementEntry{Proc: k.procID, Phase: k.phaseIdx, Domain: di})
	}
	sort.Slice(st.Set.DomainOf, func(i, j int) bool {
		a, b := st.Set.DomainOf[i], st.Set.DomainOf[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Phase < b.Phase
	})
	if d.stealEv != nil && !d.stealEv.Cancelled() {
		st.Set.StealTickAt = d.stealEv.When()
	}
	return st
}

// importDomain restores one domain's state into this shard, which must
// be freshly built with the same policy, capacity, and bindings (waker,
// clock, timer, lease, deadline, governor config) as the one that
// exported it. Waiter thread IDs are re-linked through resolve, and
// every persisted lease/deadline/tick expiry is re-armed on the bound
// timer at its original absolute time.
func (s *Scheduler) importDomain(d DomainState, resolve ThreadResolver) error {
	if s.reg.len() != 0 || s.waitlist.Len() != 0 || s.stats != (Stats{}) {
		return fmt.Errorf("core: ImportState into a scheduler that already ran")
	}
	if len(d.Capacity) != pp.NumResources || len(d.Usage) != pp.NumResources || len(d.Peak) != pp.NumResources {
		return fmt.Errorf("core: state has %d/%d/%d resource entries, want %d",
			len(d.Capacity), len(d.Usage), len(d.Peak), pp.NumResources)
	}
	if err := checkImportIDs(d, resolve); err != nil {
		return err
	}
	copy(s.rm.capacity[:], d.Capacity)
	copy(s.rm.usage[:], d.Usage)
	copy(s.rm.peak[:], d.Peak)
	s.reserve = d.Reserve
	s.nextID = d.NextID
	s.stats = d.Stats
	s.offline = d.Offline
	for _, p := range d.Parked {
		s.reg.park(p)
	}
	for _, k := range d.Reclaimed {
		s.reclaimed[periodKey{procID: k.Proc, phaseIdx: k.Phase}] = true
	}
	for _, e := range d.Inside {
		s.reg.enter(e.Thread, periodKey{procID: e.Proc, phaseIdx: e.Phase})
	}

	now := s.now()
	s.waitlist.Reset(d.WaitSeq)
	var queued []*period
	for i := range d.Periods {
		ps := &d.Periods[i]
		per := &period{
			id:         ps.ID,
			key:        periodKey{procID: ps.Proc, phaseIdx: ps.Phase},
			demands:    append([]pp.Demand(nil), ps.Demands...),
			taskPool:   ps.TaskPool,
			admitted:   ps.Admitted,
			untracked:  ps.Untracked,
			evacuated:  ps.Evacuated,
			refs:       ps.Refs,
			ticket:     ps.Ticket,
			enqueuedAt: ps.EnqueuedAt,
			admittedAt: ps.AdmittedAt,
		}
		for _, tid := range ps.Waiters {
			t := resolve(tid)
			if t == nil {
				return fmt.Errorf("core: state references unknown thread %d", tid)
			}
			per.waiters = append(per.waiters, t)
		}
		if s.reg.get(per.key) != nil {
			return fmt.Errorf("core: proc %d phase %d registered twice", ps.Proc, ps.Phase)
		}
		s.reg.add(per)
		if ps.waitlisted() {
			// The ticket bound only constrains periods re-entering the
			// queue: an admitted period stolen cross-domain keeps its
			// source shard's ticket, which says nothing about this
			// shard's counter.
			if ps.Ticket > d.WaitSeq {
				return fmt.Errorf("core: period %d ticket %d exceeds waitlist seq %d", ps.ID, ps.Ticket, d.WaitSeq)
			}
			queued = append(queued, per)
		}
		if ps.LeaseAt > 0 {
			if s.timer == nil {
				return fmt.Errorf("core: state has an armed lease but no timer is bound")
			}
			s.armLease(per, ps.LeaseAt.DurationSince(now))
		}
		if ps.DeadlineAt > 0 {
			if s.timer == nil {
				return fmt.Errorf("core: state has an armed deadline but no timer is bound")
			}
			s.armDeadline(per, ps.DeadlineAt.DurationSince(now))
		}
	}
	// Rebuild the waitlist under the original tickets: membership and
	// order derive from the registry (ticket held, not admitted).
	sort.Slice(queued, func(i, j int) bool { return queued[i].ticket < queued[j].ticket })
	for _, per := range queued {
		s.waitlist.EnqueueAs(per, per.ticket)
	}

	if (d.Gov != nil) != (s.gov != nil) {
		return fmt.Errorf("core: state governor presence %v does not match scheduler %v", d.Gov != nil, s.gov != nil)
	}
	if d.Gov != nil {
		if err := s.importGov(*d.Gov); err != nil {
			return err
		}
	}
	return nil
}

// checkImportIDs refuses an imported ID before it can index a registry
// or breaker slot. Process and phase indexes must be non-negative, and every
// Inside thread must resolve to a thread of the entry's process. A
// process ID p must also be below the machine's thread count — IDs are
// issued densely and every process owns at least one thread — which
// resolving thread p proves; that bounds the slot table a state can make
// the registry allocate. Each period must also declare a demand.
func checkImportIDs(d DomainState, resolve ThreadResolver) error {
	procOK := func(p int) bool { return p >= 0 && resolve(p) != nil }
	for _, p := range d.Parked {
		if !procOK(p) {
			return fmt.Errorf("core: state parks unknown process %d", p)
		}
	}
	for _, k := range d.Reclaimed {
		if k.Proc < 0 || k.Phase < 0 {
			return fmt.Errorf("core: state reclaims negative proc %d phase %d", k.Proc, k.Phase)
		}
	}
	for _, e := range d.Inside {
		if !procOK(e.Proc) || e.Phase < 0 {
			return fmt.Errorf("core: thread %d inside invalid proc %d phase %d", e.Thread, e.Proc, e.Phase)
		}
		t := resolve(e.Thread)
		if t == nil {
			return fmt.Errorf("core: state references unknown thread %d", e.Thread)
		}
		if t.Process().ID() != e.Proc {
			return fmt.Errorf("core: thread %d of process %d recorded inside process %d", e.Thread, t.Process().ID(), e.Proc)
		}
	}
	if d.Gov != nil {
		for _, b := range d.Gov.Breakers {
			if !procOK(b.Proc) {
				return fmt.Errorf("core: state has a breaker for unknown process %d", b.Proc)
			}
		}
	}
	for _, ps := range d.Periods {
		if !procOK(ps.Proc) || ps.Phase < 0 {
			return fmt.Errorf("core: period %d has invalid proc %d phase %d", ps.ID, ps.Proc, ps.Phase)
		}
		if len(ps.Demands) == 0 {
			return fmt.Errorf("core: period %d declares no demand", ps.ID)
		}
	}
	return nil
}

func (s *Scheduler) importGov(gs GovState) error {
	if len(gs.WaitCounts) != waitExpCap {
		return fmt.Errorf("core: governor state has %d wait buckets, want %d", len(gs.WaitCounts), waitExpCap)
	}
	g := s.gov
	g.level = gs.Level
	g.pressured = gs.Pressured
	g.pressureSince = gs.PressureSince
	g.calm = gs.Calm
	g.calmSince = gs.CalmSince
	g.windowStart = gs.WindowStart
	g.winFallbacks = gs.WinFallbacks
	g.winReclaims = gs.WinReclaims
	copy(g.waits.counts[:], gs.WaitCounts)
	g.waits.total = gs.WaitTotal
	g.stats = gs.Stats
	for _, b := range gs.Breakers {
		g.breakers = growSlots(g.breakers, b.Proc)
		g.breakers[b.Proc] = &breaker{state: b.State, strikes: b.Strikes, openedAt: b.OpenedAt}
	}
	if gs.NextTickAt > 0 {
		if s.timer == nil {
			return fmt.Errorf("core: governor state has an armed tick but no timer is bound")
		}
		g.tickEv = s.timer.After(gs.NextTickAt.DurationSince(s.now()), s.govTick)
	}
	return nil
}

// ImportState restores a full set State into this DomainSet, which must
// be freshly built with the same policy, capacity split, and bindings
// as the one that exported it.
func (d *DomainSet) ImportState(st State, resolve ThreadResolver) error {
	if len(st.Domains) != len(d.shards) {
		return fmt.Errorf("core: import of %d-domain state into %d-domain set", len(st.Domains), len(d.shards))
	}
	if st.Set == nil {
		return fmt.Errorf("core: set state missing from imported state")
	}
	for i, s := range d.shards {
		if err := s.importDomain(st.Domains[i], resolve); err != nil {
			return fmt.Errorf("domain %d: %w", i, err)
		}
	}
	d.nextID = st.Set.NextID
	d.placements = st.Set.Placements
	d.steals = st.Set.Steals
	for _, e := range st.Set.DomainOf {
		if e.Domain < 0 || e.Domain >= len(d.shards) {
			return fmt.Errorf("core: placement of proc %d phase %d on unknown domain %d", e.Proc, e.Phase, e.Domain)
		}
		d.domainOf[periodKey{procID: e.Proc, phaseIdx: e.Phase}] = e.Domain
	}
	if st.Set.StealTickAt > 0 {
		if d.timer == nil {
			return fmt.Errorf("core: set state has an armed steal tick but no timer is bound")
		}
		var now sim.Time
		if d.clock != nil {
			now = d.clock()
		}
		d.stealEv = d.timer.After(st.Set.StealTickAt.DurationSince(now), d.stealTick)
	}
	return nil
}

// Detach permanently disconnects this scheduler from the simulation:
// every pending lease, deadline, and governor tick is cancelled, the
// replay sink is dropped, and any event already queued against it (a
// 1-picosecond rescan, a timer racing the detach) becomes a no-op. The
// restore path detaches the scheduler that re-executed the pre-crash
// prefix before handing the machine to the one built from disk.
func (s *Scheduler) Detach() {
	s.detached = true
	s.rsink = nil
	s.reg.each(func(per *period) {
		if per.leaseEv != nil && s.timer != nil {
			s.timer.Cancel(per.leaseEv)
			per.leaseEv = nil
		}
		s.cancelDeadline(per)
	})
	if s.gov != nil && s.gov.tickEv != nil && s.timer != nil {
		s.timer.Cancel(s.gov.tickEv)
		s.gov.tickEv = nil
	}
}

// Detach disconnects the whole set: every shard, plus the set's pending
// steal tick; the steal scan is suppressed permanently.
func (d *DomainSet) Detach() {
	for _, s := range d.shards {
		s.Detach()
	}
	if d.stealEv != nil && d.timer != nil {
		d.timer.Cancel(d.stealEv)
		d.stealEv = nil
	}
	d.stealing = true
	d.rsink = nil
}
