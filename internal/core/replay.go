package core

import (
	"fmt"
	"sort"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// Admission journal records. When a ReplaySink is attached (the
// crash-restart checkpointer in internal/persist), every mutation of
// admission state publishes one ReplayRecord carrying the *post-state*
// of everything the decision touched: the affected period's full image,
// the domain's load ledger and counters, the governor after its
// observation, and set-level placement/steal state. Replay is therefore
// pure patching — State.Apply never re-runs scheduler logic — and it is
// idempotent: re-applying a record whose effects a snapshot already
// reflects converges to the same state, because every patch is either a
// wholesale post-value or a keyed upsert/delete. That idempotence is
// what makes mid-cascade snapshot cut points safe (the snapshot may be
// "ahead" of the record that triggered it by the rest of the current
// wake cascade; the replayed suffix catches the state up exactly).
//
// Records are only ever cut at engine-event boundaries — the process-
// death fault is itself an engine event — so a valid journal suffix
// always ends in a consistent state; torn trailing bytes are the
// journal reader's problem (internal/persist truncates at the first
// corrupt frame).

// RecKind classifies a journal record. String-valued for a stable,
// self-describing on-disk format.
type RecKind string

const (
	RecBegin      RecKind = "begin"      // period opened (registry insert, NextID bump)
	RecAdmit      RecKind = "admit"      // predicate admitted the opening period
	RecDeny       RecKind = "deny"       // period waitlisted (ticket issued or restored)
	RecWake       RecKind = "wake"       // waitlisted period admitted by a release cascade
	RecJoin       RecKind = "join"       // sibling thread joined an admitted period
	RecWaitJoin   RecKind = "wait-join"  // sibling thread parked on a pending period
	RecLeave      RecKind = "leave"      // thread left a period that stays open (refs > 0)
	RecEnd        RecKind = "end"        // last thread out: registry delete, load release
	RecReclaim    RecKind = "reclaim"    // lease watchdog evicted a leaked period
	RecFallback   RecKind = "fallback"   // admission deadline degraded a waiter to untracked
	RecReject     RecKind = "reject"     // invalid demand or double begin (untracked admit)
	RecLateEnd    RecKind = "late-end"   // pp_end after reclaim / without begin, dropped
	RecQuarantine RecKind = "quarantine" // open breaker admitted the period as baseline
	RecReserve    RecKind = "reserve"    // aged waiter took a capacity reservation
	RecGovTick    RecKind = "gov-tick"   // governor self-evaluation tick fired
	RecPlace      RecKind = "place"      // demand-aware placer assigned a new period
	RecUnmap      RecKind = "unmap"      // placement entry dropped after the period ended
	RecSteal      RecKind = "steal"      // aged waiter migrated cross-domain and admitted
	RecStealTick  RecKind = "steal-tick" // steal re-scan tick armed or fired
)

// LeasePatch re-arms one period's lease expiry (governor tightening).
type LeasePatch struct {
	ID      pp.ID
	LeaseAt sim.Time
}

// SetPatch is the DomainSet-level post-state carried by records of a
// sharded run: the scalar counters wholesale, plus placement-map deltas
// on the records that change it.
type SetPatch struct {
	NextID      pp.ID
	Placements  uint64
	Steals      uint64
	StealTickAt sim.Time
	MapAdd      []PlacementEntry
	MapDel      []ProcPhase
}

// ReplayRecord is one journal entry: the post-state of a single
// admission decision. Domain is the shard the decision happened on, or
// -1 for set-level records (place/unmap/steal-tick) that carry no shard
// patch. Src (>= 0 only on cross-domain migrations) names the shard the
// period left; the record removes it there and upserts it on Domain.
type ReplayRecord struct {
	At     sim.Time
	Kind   RecKind
	Domain int

	// Shard post-state (Domain >= 0).
	Period       *PeriodState // full post-image of the affected period
	RemoveID     pp.ID        // period deleted from the registry (end/reclaim)
	Usage        []pp.Bytes   // load ledger after the decision
	Peak         []pp.Bytes
	WaitSeq      uint64
	NextID       pp.ID
	Stats        *Stats
	Gov          *GovState
	InsideAdd    []InsideEntry
	InsideDel    []int // thread IDs
	ParkedAdd    []int // process IDs
	ParkedDel    []int
	ReclaimedAdd []ProcPhase
	Leases       []LeasePatch // governor lease tightening, same shard

	// Cross-domain migration source patch.
	Src          int // -1 when unused
	SrcParkedDel []int

	// Set-level post-state (sharded runs only).
	Set *SetPatch
}

// ReplaySink receives the admission journal stream. Replay is called
// synchronously on the decision path, after the mutation it describes;
// sinks must not call back into the scheduler.
type ReplaySink interface {
	Replay(ReplayRecord)
}

// SetReplaySink attaches the admission journal stream; nil detaches it.
// With no sink the decision path pays one branch and allocates nothing.
func (s *Scheduler) SetReplaySink(k ReplaySink) { s.rsink = k }

// SetReplaySink attaches the journal stream to every shard and the set:
// shard records are stamped with the set-level post-state so one linear
// journal captures the whole gate.
func (d *DomainSet) SetReplaySink(k ReplaySink) {
	d.rsink = k
	for _, s := range d.shards {
		s.rsink = k
		if k != nil && !d.single {
			s.setStamp = d.stampSet
		} else {
			s.setStamp = nil
		}
	}
}

// rrec publishes one post-state journal record for this shard. mut runs
// last, so it may extend both the record and the stamped set patch.
func (s *Scheduler) rrec(kind RecKind, per *period, mut func(*ReplayRecord)) {
	if s.rsink == nil {
		return
	}
	r := ReplayRecord{
		At:      s.clock(),
		Kind:    kind,
		Domain:  s.domainIdx,
		Usage:   append([]pp.Bytes(nil), s.rm.usage[:]...),
		Peak:    append([]pp.Bytes(nil), s.rm.peak[:]...),
		WaitSeq: s.waitlist.Seq(),
		NextID:  s.nextID,
		Src:     -1,
	}
	st := s.stats
	r.Stats = &st
	if per != nil {
		ps := exportPeriod(per)
		r.Period = &ps
	}
	if s.gov != nil {
		g := exportGov(s.gov)
		r.Gov = &g
	}
	if len(s.pendingLease) > 0 {
		r.Leases = s.pendingLease
		s.pendingLease = nil
	}
	if s.setStamp != nil {
		s.setStamp(&r)
	}
	if mut != nil {
		mut(&r)
	}
	s.rsink.Replay(r)
}

// insideEntry builds the InsideAdd delta for one thread entering a
// period.
func insideEntry(tid int, key periodKey) InsideEntry {
	return InsideEntry{Thread: tid, Proc: key.procID, Phase: key.phaseIdx}
}

// rrecSet publishes one set-level record (no shard patch).
func (d *DomainSet) rrecSet(kind RecKind, mut func(*ReplayRecord)) {
	if d.rsink == nil {
		return
	}
	r := ReplayRecord{At: d.clock(), Kind: kind, Domain: -1, Src: -1}
	d.stampSet(&r)
	if mut != nil {
		mut(&r)
	}
	d.rsink.Replay(r)
}

// stampSet writes the set-level scalar post-state onto a record.
func (d *DomainSet) stampSet(r *ReplayRecord) {
	sp := &SetPatch{
		NextID:     d.nextID,
		Placements: d.placements,
		Steals:     d.steals,
	}
	if d.stealEv != nil && !d.stealEv.Cancelled() {
		sp.StealTickAt = d.stealEv.When()
	}
	r.Set = sp
}

// Apply patches st with one journal record. It returns an error on a
// record that references state the journal prefix never built — an
// internally inconsistent journal, which restore treats as a hard
// failure rather than a truncation (the frame passed its checksum, so
// the producer and consumer disagree about the format, not the bytes).
func (st *State) Apply(r ReplayRecord) error {
	if r.Domain >= 0 {
		if r.Domain >= len(st.Domains) {
			return fmt.Errorf("core: record for domain %d of %d", r.Domain, len(st.Domains))
		}
		d := &st.Domains[r.Domain]
		if len(r.Usage) == pp.NumResources {
			d.Usage = append(d.Usage[:0], r.Usage...)
		}
		if len(r.Peak) == pp.NumResources {
			d.Peak = append(d.Peak[:0], r.Peak...)
		}
		d.WaitSeq = r.WaitSeq
		d.NextID = r.NextID
		if r.Stats != nil {
			d.Stats = *r.Stats
		}
		if r.Gov != nil {
			g := *r.Gov
			d.Gov = &g
		}
		if r.Period != nil {
			upsertPeriod(d, *r.Period)
		}
		if r.RemoveID != 0 {
			removePeriod(d, r.RemoveID)
		}
		for _, e := range r.InsideAdd {
			upsertInside(d, e)
		}
		for _, tid := range r.InsideDel {
			removeInside(d, tid)
		}
		for _, p := range r.ParkedAdd {
			d.Parked = addSortedInt(d.Parked, p)
		}
		for _, p := range r.ParkedDel {
			d.Parked = delSortedInt(d.Parked, p)
		}
		for _, k := range r.ReclaimedAdd {
			addReclaimed(d, k)
		}
		for _, lp := range r.Leases {
			if !setLeaseAt(d, lp) {
				return fmt.Errorf("core: lease patch for unknown period %d", lp.ID)
			}
		}
		if r.Src >= 0 && r.Period != nil {
			if r.Src >= len(st.Domains) {
				return fmt.Errorf("core: migration source domain %d of %d", r.Src, len(st.Domains))
			}
			src := &st.Domains[r.Src]
			removePeriod(src, r.Period.ID)
			for _, p := range r.SrcParkedDel {
				src.Parked = delSortedInt(src.Parked, p)
			}
		}
	}
	if r.Set != nil {
		if st.Set == nil {
			st.Set = &SetState{}
		}
		st.Set.NextID = r.Set.NextID
		st.Set.Placements = r.Set.Placements
		st.Set.Steals = r.Set.Steals
		st.Set.StealTickAt = r.Set.StealTickAt
		for _, e := range r.Set.MapAdd {
			upsertPlacement(st.Set, e)
		}
		for _, k := range r.Set.MapDel {
			removePlacement(st.Set, k)
		}
	}
	if r.At > st.At {
		st.At = r.At
	}
	return nil
}

func upsertPeriod(d *DomainState, ps PeriodState) {
	i := sort.Search(len(d.Periods), func(i int) bool { return d.Periods[i].ID >= ps.ID })
	if i < len(d.Periods) && d.Periods[i].ID == ps.ID {
		d.Periods[i] = ps
		return
	}
	d.Periods = append(d.Periods, PeriodState{})
	copy(d.Periods[i+1:], d.Periods[i:])
	d.Periods[i] = ps
}

func removePeriod(d *DomainState, id pp.ID) {
	i := sort.Search(len(d.Periods), func(i int) bool { return d.Periods[i].ID >= id })
	if i < len(d.Periods) && d.Periods[i].ID == id {
		d.Periods = without(d.Periods, i)
	}
}

func setLeaseAt(d *DomainState, lp LeasePatch) bool {
	i := sort.Search(len(d.Periods), func(i int) bool { return d.Periods[i].ID >= lp.ID })
	if i < len(d.Periods) && d.Periods[i].ID == lp.ID {
		d.Periods[i].LeaseAt = lp.LeaseAt
		return true
	}
	return false
}

func upsertInside(d *DomainState, e InsideEntry) {
	i := sort.Search(len(d.Inside), func(i int) bool { return d.Inside[i].Thread >= e.Thread })
	if i < len(d.Inside) && d.Inside[i].Thread == e.Thread {
		d.Inside[i] = e
		return
	}
	d.Inside = append(d.Inside, InsideEntry{})
	copy(d.Inside[i+1:], d.Inside[i:])
	d.Inside[i] = e
}

func removeInside(d *DomainState, tid int) {
	i := sort.Search(len(d.Inside), func(i int) bool { return d.Inside[i].Thread >= tid })
	if i < len(d.Inside) && d.Inside[i].Thread == tid {
		d.Inside = without(d.Inside, i)
	}
}

func addSortedInt(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	if i < len(xs) && xs[i] == v {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

func delSortedInt(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	if i < len(xs) && xs[i] == v {
		return without(xs, i)
	}
	return xs
}

func addReclaimed(d *DomainState, k ProcPhase) {
	i := sort.Search(len(d.Reclaimed), func(i int) bool {
		r := d.Reclaimed[i]
		return r.Proc > k.Proc || (r.Proc == k.Proc && r.Phase >= k.Phase)
	})
	if i < len(d.Reclaimed) && d.Reclaimed[i] == k {
		return
	}
	d.Reclaimed = append(d.Reclaimed, ProcPhase{})
	copy(d.Reclaimed[i+1:], d.Reclaimed[i:])
	d.Reclaimed[i] = k
}

func upsertPlacement(ss *SetState, e PlacementEntry) {
	i := sort.Search(len(ss.DomainOf), func(i int) bool {
		p := ss.DomainOf[i]
		return p.Proc > e.Proc || (p.Proc == e.Proc && p.Phase >= e.Phase)
	})
	if i < len(ss.DomainOf) && ss.DomainOf[i].Proc == e.Proc && ss.DomainOf[i].Phase == e.Phase {
		ss.DomainOf[i] = e
		return
	}
	ss.DomainOf = append(ss.DomainOf, PlacementEntry{})
	copy(ss.DomainOf[i+1:], ss.DomainOf[i:])
	ss.DomainOf[i] = e
}

func removePlacement(ss *SetState, k ProcPhase) {
	i := sort.Search(len(ss.DomainOf), func(i int) bool {
		p := ss.DomainOf[i]
		return p.Proc > k.Proc || (p.Proc == k.Proc && p.Phase >= k.Phase)
	})
	if i < len(ss.DomainOf) && ss.DomainOf[i].Proc == k.Proc && ss.DomainOf[i].Phase == k.Phase {
		ss.DomainOf = without(ss.DomainOf, i)
	}
}

// without deletes xs[i]. Deleting the last element leaves nil, not an
// empty slice: ExportState leaves an empty list nil, and the two encode
// differently (null, []) under the canonical JSON the restore check
// compares.
func without[T any](xs []T, i int) []T {
	if len(xs) == 1 {
		return nil
	}
	return append(xs[:i], xs[i+1:]...)
}
