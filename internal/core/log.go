package core

import (
	"fmt"

	"rdasched/internal/pp"
	"rdasched/internal/sim"
)

// Decision stream: every admission decision the scheduler makes is
// published as an Event to a set of subscribed sinks (the kernel
// prototype's equivalent would be a tracepoint). EventRing, a bounded
// ring of the latest decisions, is one such sink; the telemetry layer
// (internal/telemetry/trace) subscribes span collectors the same way.
// With no sinks attached and no metrics registry bound, the decision
// path costs one branch and allocates nothing.

// EventKind classifies a logged scheduling decision.
type EventKind int

const (
	// EventBegin: a period was opened (first thread arrived).
	EventBegin EventKind = iota
	// EventAdmit: the predicate admitted the period.
	EventAdmit
	// EventDeny: the predicate waitlisted the period.
	EventDeny
	// EventWake: a waitlisted period was admitted after a release.
	EventWake
	// EventEnd: the period completed and released its demands.
	EventEnd
	// EventReclaim: the lease watchdog reclaimed a leaked period's load.
	EventReclaim
	// EventFallback: a waitlisted period hit the admission deadline and
	// was degraded to stock-scheduler admission.
	EventFallback
	// EventReject: an invalid external demand (or double pp_begin) was
	// refused; the period runs untracked.
	EventReject
	// EventLateEnd: a pp_end arrived for a reclaimed or unknown period
	// and was dropped.
	EventLateEnd

	// Governor decisions (governor.go). Degrade/Recover are period-less
	// ladder transitions: Proc is -1 and Phase carries the level after
	// the step.
	//
	// EventGovernorDegrade: sustained pressure stepped the effective
	// policy one level toward shedding.
	EventGovernorDegrade
	// EventGovernorRecover: sustained calm stepped it one level back.
	EventGovernorRecover
	// EventGovernorQuarantine: a period from a process with an open
	// misdeclaration breaker was admitted as undeclared baseline.
	EventGovernorQuarantine
	// EventGovernorRestore: a clean half-open probe closed the breaker.
	EventGovernorRestore
	// EventGovernorReserve: an aged waiter still did not fit and took a
	// capacity reservation, blocking younger admissions this cascade.
	EventGovernorReserve

	// Domain decisions (domain.go), emitted only by a DomainSet with two
	// or more domains; Event.Domain carries the domain index.
	//
	// EventPlace: the demand-aware placer assigned a new period to a
	// domain (emitted before the period's begin, so ID is 0).
	EventPlace
	// EventSteal: an aged waitlisted period was migrated cross-domain
	// and admitted on the stealing domain.
	EventSteal

	// Domain fault and recovery decisions (domain_recovery.go). Shard-
	// level events carry Proc -1; Event.Domain is the shard the event is
	// about and Event.Demand.WorkingSet the magnitude (capacity lost,
	// ledger drift, capacity restored).
	//
	// EventDomainFail: an injected shard fault was applied; Phase carries
	// the fault discriminator (DomainFaultCapacity, DomainFaultCrash,
	// DomainFaultLedger).
	EventDomainFail
	// EventEvacuate: a period was migrated off a failed shard — admitted
	// on the destination when capacity allowed, or transferred to its
	// waitlist otherwise. Per-period: ID/Proc/Phase are the period's,
	// Domain is the destination shard.
	EventEvacuate
	// EventRecover: a quarantined or degraded shard was reintegrated and
	// the capacity split restored.
	EventRecover
	// EventAudit: the invariant auditor found a shard's ledger drifted
	// from the sum of its admitted periods' charges and repaired it.
	EventAudit
)

func (k EventKind) String() string {
	switch k {
	case EventBegin:
		return "begin"
	case EventAdmit:
		return "admit"
	case EventDeny:
		return "deny"
	case EventWake:
		return "wake"
	case EventEnd:
		return "end"
	case EventReclaim:
		return "reclaim"
	case EventFallback:
		return "fallback"
	case EventReject:
		return "reject"
	case EventLateEnd:
		return "late-end"
	case EventGovernorDegrade:
		return "gov-degrade"
	case EventGovernorRecover:
		return "gov-recover"
	case EventGovernorQuarantine:
		return "gov-quarantine"
	case EventGovernorRestore:
		return "gov-restore"
	case EventGovernorReserve:
		return "gov-reserve"
	case EventPlace:
		return "place"
	case EventSteal:
		return "steal"
	case EventDomainFail:
		return "domain-fail"
	case EventEvacuate:
		return "evacuate"
	case EventRecover:
		return "recover"
	case EventAudit:
		return "audit"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one published decision.
type Event struct {
	At   sim.Time
	Kind EventKind
	// ID is the period's admission ID (0 when the decision has no
	// registered period, e.g. a late end).
	ID    pp.ID
	Proc  int
	Phase int
	// Demand is the period's primary (LLC) demand.
	Demand pp.Demand
	// Load is the LLC load *after* the decision took effect.
	Load pp.Bytes
	// Wait is how long the period sat on the waitlist before this
	// decision; nonzero only on EventWake, EventFallback, and
	// EventGovernorReserve (and only with a bound Clock).
	Wait sim.Duration
	// Domain is the index of the LLC domain the decision happened on;
	// always 0 outside a multi-domain DomainSet.
	Domain int
}

func (e Event) String() string {
	return fmt.Sprintf("%v %-5s proc=%d phase=%d demand=%v load=%v",
		e.At, e.Kind, e.Proc, e.Phase, e.Demand.WorkingSet, e.Load)
}

// EventSink receives the scheduler's decision stream. Record is called
// synchronously on the decision path in virtual-time order; sinks must
// not call back into the scheduler.
type EventSink interface {
	Record(Event)
}

// Clock supplies timestamps for the decision log; machine.Machine's Now
// method satisfies it. Without a clock, events are stamped zero.
type Clock func() sim.Time

// SetClock binds the timestamp source (typically machine.Now).
func (s *Scheduler) SetClock(c Clock) { s.clock = c }

// AddSink subscribes a sink to the decision stream. Sinks that also
// implement BlameSink (blame.go) additionally receive the blocker
// snapshot on every deny.
func (s *Scheduler) AddSink(sink EventSink) {
	if sink == nil {
		return
	}
	s.sinks = append(s.sinks, sink)
	if bs, ok := sink.(BlameSink); ok {
		s.blameSinks = append(s.blameSinks, bs)
	}
}

// EventRing is a bounded ring sink keeping the most recent events, the
// reference EventSink implementation: subscribe it with AddSink and
// read it after the run.
type EventRing struct {
	buf   []Event
	start int
	drops uint64
}

// NewEventRing returns a ring keeping the last n events (n must be
// positive).
func NewEventRing(n int) *EventRing {
	if n <= 0 {
		panic(fmt.Sprintf("core: non-positive ring capacity %d", n))
	}
	return &EventRing{buf: make([]Event, 0, n)}
}

// Record implements EventSink: once the ring is full, each new event
// overwrites the oldest and counts as a drop.
func (r *EventRing) Record(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
	r.drops++
}

// Events returns the recorded events oldest-first.
func (r *EventRing) Events() []Event {
	out := make([]Event, len(r.buf))
	n := copy(out, r.buf[r.start:])
	copy(out[n:], r.buf[:r.start])
	return out
}

// Drops returns how many events were overwritten after the ring filled.
func (r *EventRing) Drops() uint64 { return r.drops }

// emit publishes one decision to every sink and samples the metrics
// registry. per is the decision's period when one is registered (nil
// for late ends). The early return keeps the disabled path free: no
// Event is built, nothing allocates.
func (s *Scheduler) emit(kind EventKind, per *period, key periodKey, d pp.Demand) {
	if len(s.sinks) == 0 && s.met == nil {
		return
	}
	var at sim.Time
	if s.clock != nil {
		at = s.clock()
	}
	e := Event{
		At: at, Kind: kind, Proc: key.procID, Phase: key.phaseIdx,
		Demand: d, Load: s.rm.Usage(pp.ResourceLLC),
		Domain: s.domainIdx,
	}
	if per != nil {
		e.ID = per.id
		if (kind == EventWake || kind == EventFallback || kind == EventGovernorReserve) && s.clock != nil {
			e.Wait = at.DurationSince(per.enqueuedAt)
		}
	}
	for _, sink := range s.sinks {
		sink.Record(e)
	}
	if kind == EventDeny && len(s.blameSinks) > 0 {
		s.snapshotBlockers(e)
	}
	if s.met != nil {
		s.observeMetrics(per, e)
	}
}
