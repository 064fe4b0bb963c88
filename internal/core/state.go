package core

import (
	"encoding/json"
	"sort"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// Checkpointable scheduler state. The crash-restart machinery
// (internal/persist) snapshots the full admission gate — load ledger,
// registry, waitlists with tickets and enqueue times, lease and deadline
// expiries, governor ladder/breaker/probation state, per-domain shards —
// as a pure-data State value. Nothing loads a State back into a
// scheduler: a revival re-executes the killed run on a fresh gate,
// checks that gate's decisions against the journal and its state at the
// newest snapshot's record against the snapshot read from disk, and
// resumes on the same gate. Everything is plain exported structs
// with deterministically ordered slices (no maps) and nil rather than
// empty lists, so the JSON encoding is canonical: two States describing
// the same gate marshal to identical bytes, which is what the restore
// consistency check and the snapshot round-trip fuzz target compare.
// Timer state is stored as absolute virtual-clock expiries (zero =
// unarmed).

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
// are kept deterministically ordered by the export path and the structs
// contain no maps, so equal states produce identical bytes.
func (st *State) Canonical() ([]byte, error) { return json.Marshal(st) }

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
// time (single unsharded domain). Like EnterPhase, it refuses a gate
// SetWaker, SetClock and SetTimer have not bound.
func (s *Scheduler) ExportState() State {
	checkBound(s.waker, s.clock, s.timer)
	return State{At: s.clock(), Domains: []DomainState{s.exportDomain()}}
}

// ExportState captures the full set state: every shard plus the
// placement map, cross-domain counters, and the pending steal tick. Like
// EnterPhase, it refuses a set SetWaker, SetClock and SetTimer have not
// bound.
func (d *DomainSet) ExportState() State {
	checkBound(d.shards[0].waker, d.clock, d.timer)
	st := State{At: d.clock(), Set: &SetState{
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
