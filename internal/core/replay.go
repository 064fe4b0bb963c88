package core

import (
	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// The decision journal. When a ReplaySink is attached (the crash-restart
// checkpointer in internal/persist), every admission decision publishes
// one ReplayRecord naming it: when, what kind, on which domain, and the
// period and (process, phase) it concerns. A record carries no state.
// The gate is deterministic, so the decisions name everything a state
// would: a revival re-executes the killed run from t=0 and checks each
// decision it makes against the journal's, and the gate's full state
// against the newest snapshot's at the record that snapshot was cut
// after (internal/perf).

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

// ReplayRecord is one journal entry: a single admission decision.
// Domain is the shard the decision happened on, or -1 for a set-level
// decision (place, unmap, steal-tick). ID is the admission ID of the
// period the decision concerns, 0 when there is none (late-end, the
// ticks and the set-level decisions). Proc and Phase name the process
// and phase it concerns; both are -1 on the ticks, which concern none.
type ReplayRecord struct {
	At     sim.Time
	Kind   RecKind
	Domain int
	ID     pp.ID
	Proc   int
	Phase  int
}

// ReplaySink receives the decision journal. Replay is called
// synchronously on the decision path, after the mutation it describes;
// sinks must not call back into the scheduler.
type ReplaySink interface {
	Replay(ReplayRecord)
}

// noKey is the (process, phase) of a tick record, which concerns none.
var noKey = periodKey{procID: -1, phaseIdx: -1}

// SetReplaySink attaches the decision journal; nil detaches it. With no
// sink the decision path pays one branch and allocates nothing.
func (s *Scheduler) SetReplaySink(k ReplaySink) { s.rsink = k }

// SetReplaySink attaches the decision journal to every shard and the
// set, so one linear journal holds the whole gate's decisions.
func (d *DomainSet) SetReplaySink(k ReplaySink) {
	d.rsink = k
	for _, s := range d.shards {
		s.rsink = k
	}
}

// rrec publishes one decision of this shard about period id of key.
func (s *Scheduler) rrec(kind RecKind, id pp.ID, key periodKey) {
	if s.rsink == nil {
		return
	}
	s.rsink.Replay(ReplayRecord{At: s.clock(), Kind: kind, Domain: s.domainIdx, ID: id, Proc: key.procID, Phase: key.phaseIdx})
}

// rrecSet publishes one set-level decision about key.
func (d *DomainSet) rrecSet(kind RecKind, key periodKey) {
	if d.rsink == nil {
		return
	}
	d.rsink.Replay(ReplayRecord{At: d.clock(), Kind: kind, Domain: -1, Proc: key.procID, Phase: key.phaseIdx})
}
