package core

import (
	"cmp"
	"slices"

	"rdasched/internal/pp"
)

// Blocker snapshot: the causal half of the decision stream. An
// EventDeny says a period was waitlisted; it does not say *why*. The
// why is the set of periods holding load at denial time — Algorithm 1
// denied because their admitted working sets left too little space.
// Sinks that want to attribute wait time to those periods (the blame
// engine, internal/telemetry/blame) implement BlameSink; the scheduler
// hands them the resident set alongside every deny.
//
// The snapshot is taken from the registry, not reconstructed from the
// event stream, so it is exact even across paths the stream renders
// ambiguously (untracked fallback admissions, evacuations, steals).
// When no blame sink is subscribed the decision path pays one length
// check and allocates nothing; with one attached, the snapshot reuses
// a scratch buffer that only grows to the high-water resident count,
// and sorts it in place without allocating.

// Blocker is one resident period holding load at a denial: the period's
// admission ID, its owning process and phase, and its primary (LLC)
// demand — the weight fractional blame is split by.
type Blocker struct {
	ID     pp.ID
	Proc   int
	Phase  int
	Demand pp.Bytes
}

// BlameSink is an EventSink that additionally receives the blocker
// snapshot for every deny. RecordDeny is called synchronously right
// after the deny's Record, with the same Event; the blockers slice is
// owned by the scheduler and valid only during the call — sinks must
// copy what they keep. Blockers arrive sorted by admission ID.
type BlameSink interface {
	EventSink
	RecordDeny(e Event, blockers []Blocker)
}

// snapshotBlockers builds the sorted resident set — admitted, tracked
// periods, the ones whose load the denied period was judged against —
// and delivers it to every blame sink. Called from emit only when a
// blame sink is subscribed.
func (s *Scheduler) snapshotBlockers(e Event) {
	buf := s.blameBuf[:0]
	s.reg.each(func(per *period) {
		if !per.admitted || per.untracked {
			return
		}
		buf = append(buf, Blocker{
			ID:     per.id,
			Proc:   per.key.procID,
			Phase:  per.key.phaseIdx,
			Demand: per.demands[0].WorkingSet,
		})
	})
	slices.SortFunc(buf, func(a, b Blocker) int { return cmp.Compare(a.ID, b.ID) })
	s.blameBuf = buf
	for _, bs := range s.blameSinks {
		bs.RecordDeny(e, buf)
	}
}
