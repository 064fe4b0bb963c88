// Package blame turns the scheduler's decision stream into causal
// answers: who made each period wait, for how long, and what the wait
// cost the whole run. The paper's effect (Figs 5–8) flows through one
// mechanism — Algorithm 1 waitlisting a period because *other* periods
// hold LLC load — and the raw stream only counts those decisions. The
// Collector here consumes the stream plus the core's blocker snapshots
// (core.BlameSink) and reconstructs, for every EventDeny →
// EventWake/EventFallback interval, the residents that held load at
// denial time, attributing the wait fractionally to each by demand
// share.
//
// Everything is exact on the virtual clock: attribution uses 128-bit
// integer multiply/divide (never floats), the sub-picosecond remainder
// is handed out one picosecond at a time in blocker-ID order, and the
// conservation invariant
//
//	Σ blamed shares + unattributed = total wait
//
// holds for every period by construction (and is fuzzed). All outputs
// are sorted deterministically, so reports are byte-identical across
// -jobs N.
package blame

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"rdasched/internal/core"
	"rdasched/internal/pp"
	"rdasched/internal/sim"
	"rdasched/internal/telemetry"
)

// Share is one blocker's slice of a waiting period's wait time.
type Share struct {
	// BlockerID is the blocking period's admission ID; BlockerProc its
	// owning process.
	BlockerID   pp.ID `json:"blocker_id"`
	BlockerProc int   `json:"blocker_proc"`
	// Demand is the blocker's LLC demand at denial time — the weight
	// the split used.
	Demand pp.Bytes `json:"demand_bytes"`
	// Blamed is the wait time attributed to this blocker (virtual
	// picoseconds).
	Blamed sim.Duration `json:"blamed_ps"`
}

// PeriodBlame is the attribution record for one waitlisted period: the
// blame timeline entry.
type PeriodBlame struct {
	// Rep is the replication the record came from; stamped on merge.
	Rep int `json:"rep"`
	// ID, Proc, Phase locate the waiting period.
	ID    pp.ID `json:"id"`
	Proc  int   `json:"proc"`
	Phase int   `json:"phase"`
	// DenyAt and ClosedAt bound the wait interval; Outcome records how
	// it closed ("wake", "fallback", or "unfinished" at Finish).
	DenyAt   sim.Time `json:"deny_at_ps"`
	ClosedAt sim.Time `json:"closed_at_ps"`
	Outcome  string   `json:"outcome"`
	// Wait = ClosedAt - DenyAt.
	Wait sim.Duration `json:"wait_ps"`
	// Shares splits Wait across the denial-time blockers by demand
	// share, in blocker-ID order. Unattributed is the remainder that no
	// blocker explains (the whole wait when the resident set was empty
	// at denial — e.g. a demand larger than clean capacity).
	Shares       []Share      `json:"shares,omitempty"`
	Unattributed sim.Duration `json:"unattributed_ps"`
}

// Blamed returns the total wait this record attributes to blockers.
func (p PeriodBlame) Blamed() sim.Duration {
	var t sim.Duration
	for _, s := range p.Shares {
		t += s.Blamed
	}
	return t
}

// MatrixCell is one interference-matrix entry: how much wait time
// periods of BlockerProc inflicted on periods of WaiterProc.
type MatrixCell struct {
	BlockerProc int          `json:"blocker_proc"`
	WaiterProc  int          `json:"waiter_proc"`
	Blamed      sim.Duration `json:"blamed_ps"`
}

// Path is the critical-path decomposition of the makespan. Every
// instant of [0, Makespan] falls in exactly one class, judged by the
// scheduler's state at that instant: Run while at least one tracked
// period holds load; otherwise WaitBlamed while some waiter's
// denial-time blocker set was non-empty (the wait is explained);
// otherwise WaitUnattributed while waiters exist but none has a
// blocker to point at; Idle otherwise. Run + WaitBlamed +
// WaitUnattributed + Idle = Makespan exactly.
type Path struct {
	Run              sim.Duration `json:"run_ps"`
	WaitBlamed       sim.Duration `json:"wait_blamed_ps"`
	WaitUnattributed sim.Duration `json:"wait_unattributed_ps"`
	Idle             sim.Duration `json:"idle_ps"`
	Makespan         sim.Duration `json:"makespan_ps"`
}

// Report is the Collector's aggregated output.
type Report struct {
	// Periods is the blame timeline, ordered by (Rep, DenyAt, ID).
	Periods []PeriodBlame `json:"periods"`
	// Matrix is the per-process interference matrix, ordered by
	// (BlockerProc, WaiterProc); zero cells are omitted.
	Matrix []MatrixCell `json:"matrix"`
	// Path decomposes the makespan (summed across merged repetitions).
	Path Path `json:"path"`
	// Denies counts deny decisions seen (= len(Periods) per run: every
	// deny opens exactly one wait interval).
	Denies uint64 `json:"denies"`
	// TotalWait/TotalBlamed/TotalUnattributed sum the per-period
	// records; TotalWait = TotalBlamed + TotalUnattributed always.
	TotalWait         sim.Duration `json:"total_wait_ps"`
	TotalBlamed       sim.Duration `json:"total_blamed_ps"`
	TotalUnattributed sim.Duration `json:"total_unattributed_ps"`
}

// Merge folds other into r in repetition order: timelines concatenate,
// matrix cells and path segments add, totals sum. Both matrices must
// hold Matrix's order invariant, as every Report and Merge result does.
func (r *Report) Merge(other *Report) {
	if other == nil {
		return
	}
	r.Periods = append(r.Periods, other.Periods...)
	r.Matrix = mergeMatrix(r.Matrix, other.Matrix)
	r.Path.Run += other.Path.Run
	r.Path.WaitBlamed += other.Path.WaitBlamed
	r.Path.WaitUnattributed += other.Path.WaitUnattributed
	r.Path.Idle += other.Path.Idle
	r.Path.Makespan += other.Path.Makespan
	r.Denies += other.Denies
	r.TotalWait += other.TotalWait
	r.TotalBlamed += other.TotalBlamed
	r.TotalUnattributed += other.TotalUnattributed
}

// Check verifies the conservation invariant on every period and on the
// totals, returning the first violation. Exact equality, no epsilon:
// the virtual clock has none.
func (r *Report) Check() error {
	var wait, blamed, unattr sim.Duration
	for _, p := range r.Periods {
		if p.Blamed()+p.Unattributed != p.Wait {
			return fmt.Errorf("blame: period %d (proc %d): shares %v + unattributed %v != wait %v",
				p.ID, p.Proc, p.Blamed(), p.Unattributed, p.Wait)
		}
		if p.Wait < 0 || p.Unattributed < 0 {
			return fmt.Errorf("blame: period %d: negative wait %v / unattributed %v", p.ID, p.Wait, p.Unattributed)
		}
		for _, s := range p.Shares {
			if s.Blamed < 0 {
				return fmt.Errorf("blame: period %d: negative share %v for blocker %d", p.ID, s.Blamed, s.BlockerID)
			}
		}
		wait += p.Wait
		blamed += p.Blamed()
		unattr += p.Unattributed
	}
	if wait != r.TotalWait || blamed != r.TotalBlamed || unattr != r.TotalUnattributed {
		return fmt.Errorf("blame: totals drifted: wait %v/%v blamed %v/%v unattributed %v/%v",
			wait, r.TotalWait, blamed, r.TotalBlamed, unattr, r.TotalUnattributed)
	}
	if r.TotalBlamed+r.TotalUnattributed != r.TotalWait {
		return fmt.Errorf("blame: blamed %v + unattributed %v != wait %v",
			r.TotalBlamed, r.TotalUnattributed, r.TotalWait)
	}
	var mat sim.Duration
	for _, c := range r.Matrix {
		mat += c.Blamed
	}
	if mat != r.TotalBlamed {
		return fmt.Errorf("blame: matrix sum %v != total blamed %v", mat, r.TotalBlamed)
	}
	if got := r.Path.Run + r.Path.WaitBlamed + r.Path.WaitUnattributed + r.Path.Idle; got != r.Path.Makespan {
		return fmt.Errorf("blame: path classes sum %v != makespan %v", got, r.Path.Makespan)
	}
	return nil
}

// Metric family names published by Report.Publish. Counters and
// histograms only — both add under Registry.Merge, so per-repetition
// publishes aggregate the same way every other family does.
const (
	MetricBlamePeriods      = "rda_blame_periods_total"
	MetricBlameDenies       = "rda_blame_denies_total"
	MetricBlameBlocked      = "rda_blame_blocked_seconds"
	MetricBlameUnattributed = "rda_blame_unattributed_seconds"
)

// Publish writes the report's aggregates into a telemetry registry.
func (r *Report) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter(MetricBlamePeriods).Add(uint64(len(r.Periods)))
	reg.Counter(MetricBlameDenies).Add(r.Denies)
	blocked := reg.Histogram(MetricBlameBlocked)
	unattr := reg.Histogram(MetricBlameUnattributed)
	for _, p := range r.Periods {
		blocked.Observe(p.Blamed().Seconds())
		unattr.Observe(p.Unattributed.Seconds())
	}
}

// resident is one tracked admitted period, keyed by admission ID in
// Collector.residents.
type resident struct {
	proc   int
	demand pp.Bytes
}

// waiter is one open deny→close interval.
type waiter struct {
	id          pp.ID
	proc, phase int
	denyAt      sim.Time
	// shares is the denial-time resident snapshot, copied (the
	// scheduler owns the slice it hands RecordDeny) into one share per
	// blocker with nothing blamed yet; close fills in the blame and
	// hands the slice to the period's record.
	shares []Share
}

// Collector consumes the decision stream and blocker snapshots and
// builds a Report. It implements core.BlameSink; subscribe it with
// AddSink on a Scheduler or DomainSet. Single-goroutine, like every
// sink: events arrive synchronously in virtual-time order.
type Collector struct {
	residents map[pp.ID]resident
	waiters   map[pp.ID]*waiter
	// nBlamed counts open waiters whose blocker snapshot is non-empty,
	// so segment classification is O(1).
	nBlamed int
	segAt   sim.Time
	closed  []PeriodBlame
	// matrix[b][w] sums the wait blocker process b inflicted on waiter
	// process w. Rows and columns grow on demand to the highest process
	// index seen; process indices are the workload's, never negative.
	matrix   [][]sim.Duration
	path     Path
	denies   uint64
	finished bool
}

// NewCollector returns an empty blame collector.
func NewCollector() *Collector {
	return &Collector{
		residents: make(map[pp.ID]resident),
		waiters:   make(map[pp.ID]*waiter),
	}
}

// Record implements core.EventSink. Every event first seals the
// current path segment (the state classified is the one that held
// since the previous event), then updates the resident/waiter sets.
func (c *Collector) Record(e core.Event) {
	c.seal(e.At)
	switch e.Kind {
	case core.EventAdmit:
		c.residents[e.ID] = resident{proc: e.Proc, demand: e.Demand.WorkingSet}
	case core.EventWake, core.EventFallback:
		if e.Kind == core.EventWake {
			// Wakes (including post-steal and post-evacuation re-admissions)
			// make the period a resident again.
			c.residents[e.ID] = resident{proc: e.Proc, demand: e.Demand.WorkingSet}
		}
		if w := c.waiters[e.ID]; w != nil {
			outcome := "wake"
			if e.Kind == core.EventFallback {
				outcome = "fallback"
			}
			c.close(w, e.At, outcome)
		}
	case core.EventEnd, core.EventReclaim:
		delete(c.residents, e.ID)
	case core.EventEvacuate:
		// The period left its shard; if the destination admitted it, the
		// EventWake that follows (same instant) restores residency. If it
		// landed on the destination's waitlist it holds no load and is
		// correctly dropped here; its eventual wake closes no waiter
		// (there was no deny) and simply re-adds it.
		delete(c.residents, e.ID)
	}
}

// RecordDeny implements core.BlameSink: open a wait interval carrying
// the denial-time blocker snapshot.
func (c *Collector) RecordDeny(e core.Event, blockers []core.Blocker) {
	c.seal(e.At)
	c.denies++
	w := &waiter{id: e.ID, proc: e.Proc, phase: e.Phase, denyAt: e.At}
	if len(blockers) > 0 {
		w.shares = make([]Share, len(blockers))
		for i, b := range blockers {
			w.shares[i] = Share{BlockerID: b.ID, BlockerProc: b.Proc, Demand: b.Demand}
		}
		c.nBlamed++
	}
	c.waiters[e.ID] = w
}

// seal closes the path segment [segAt, at) under the current state.
func (c *Collector) seal(at sim.Time) {
	seg := at.DurationSince(c.segAt)
	if seg <= 0 {
		return
	}
	switch {
	case len(c.residents) > 0:
		c.path.Run += seg
	case c.nBlamed > 0:
		c.path.WaitBlamed += seg
	case len(c.waiters) > 0:
		c.path.WaitUnattributed += seg
	default:
		c.path.Idle += seg
	}
	c.segAt = at
}

// close seals waiter w's interval at time at and attributes its wait.
func (c *Collector) close(w *waiter, at sim.Time, outcome string) {
	delete(c.waiters, w.id)
	if len(w.shares) > 0 {
		c.nBlamed--
	}
	wait := at.DurationSince(w.denyAt)
	pb := PeriodBlame{
		ID: w.id, Proc: w.proc, Phase: w.phase,
		DenyAt: w.denyAt, ClosedAt: at, Outcome: outcome, Wait: wait,
	}
	var totalDemand uint64
	for _, s := range w.shares {
		totalDemand += uint64(s.Demand)
	}
	if totalDemand == 0 || wait <= 0 {
		pb.Unattributed = wait
	} else {
		// Exact fractional split: share_i = ⌊wait·d_i/D⌋ via 128-bit
		// intermediate (the quotient fits in 64 bits because d_i ≤ D),
		// then the remainder — strictly less than len(shares)
		// picoseconds — goes one picosecond apiece to the lowest
		// admission IDs. Blockers arrive ID-sorted from the core.
		var given sim.Duration
		for i := range w.shares {
			hi, lo := bits.Mul64(uint64(wait), uint64(w.shares[i].Demand))
			q, _ := bits.Div64(hi, lo, totalDemand)
			w.shares[i].Blamed = sim.Duration(q)
			given += w.shares[i].Blamed
		}
		for i := 0; given < wait; i++ {
			w.shares[i].Blamed++
			given++
		}
		for _, s := range w.shares {
			c.addCell(s.BlockerProc, w.proc, s.Blamed)
		}
		pb.Shares = w.shares
	}
	c.closed = append(c.closed, pb)
}

// addCell adds d to the (blocker, waiter) cell, growing the table to
// hold it.
func (c *Collector) addCell(blocker, waiter int, d sim.Duration) {
	if blocker >= len(c.matrix) {
		c.matrix = append(c.matrix, make([][]sim.Duration, blocker+1-len(c.matrix))...)
	}
	row := c.matrix[blocker]
	if waiter >= len(row) {
		row = append(row, make([]sim.Duration, waiter+1-len(row))...)
		c.matrix[blocker] = row
	}
	row[waiter] += d
}

// Finish seals the run at time at: the final path segment closes, and
// waiters still open (still waitlisted at quiesce) close with outcome
// "unfinished", their wait measured to at. Call once, after the run.
func (c *Collector) Finish(at sim.Time) {
	if c.finished {
		return
	}
	c.finished = true
	c.seal(at)
	open := make([]*waiter, 0, len(c.waiters))
	for _, w := range c.waiters {
		open = append(open, w)
	}
	slices.SortFunc(open, func(a, b *waiter) int { return cmp.Compare(a.id, b.id) })
	for _, w := range open {
		c.close(w, at, "unfinished")
	}
	c.path.Makespan = at.DurationSince(sim.Time(0))
}

// Report returns the collected attribution. The timeline is ordered by
// (DenyAt, ID) and the matrix by (BlockerProc, WaiterProc) — both total
// orders, so the report is deterministic for a deterministic run.
func (c *Collector) Report() *Report {
	cells := 0
	for _, row := range c.matrix {
		for _, v := range row {
			if v != 0 {
				cells++
			}
		}
	}
	r := &Report{
		Periods: append([]PeriodBlame(nil), c.closed...),
		Matrix:  make([]MatrixCell, 0, cells),
		Path:    c.path,
		Denies:  c.denies,
	}
	for b, row := range c.matrix {
		for w, v := range row {
			if v != 0 {
				r.Matrix = append(r.Matrix, MatrixCell{BlockerProc: b, WaiterProc: w, Blamed: v})
			}
		}
	}
	slices.SortFunc(r.Periods, func(a, b PeriodBlame) int {
		return cmp.Or(cmp.Compare(a.DenyAt, b.DenyAt), cmp.Compare(a.ID, b.ID))
	})
	for _, p := range r.Periods {
		r.TotalWait += p.Wait
		r.TotalBlamed += p.Blamed()
		r.TotalUnattributed += p.Unattributed
	}
	return r
}

// mergeMatrix sums two matrices ordered by (BlockerProc, WaiterProc) in
// one pass, into a fresh matrix in the same order with zero sums
// omitted.
func mergeMatrix(a, b []MatrixCell) []MatrixCell {
	out := make([]MatrixCell, 0, max(len(a), len(b)))
	for len(a) > 0 || len(b) > 0 {
		var c MatrixCell
		switch {
		case len(b) == 0 || len(a) > 0 && cellBefore(a[0], b[0]):
			c, a = a[0], a[1:]
		case len(a) == 0 || cellBefore(b[0], a[0]):
			c, b = b[0], b[1:]
		default:
			c = a[0]
			c.Blamed += b[0].Blamed
			a, b = a[1:], b[1:]
		}
		if c.Blamed != 0 {
			out = append(out, c)
		}
	}
	return out
}

// cellBefore orders matrix cells by (BlockerProc, WaiterProc).
func cellBefore(x, y MatrixCell) bool {
	if x.BlockerProc != y.BlockerProc {
		return x.BlockerProc < y.BlockerProc
	}
	return x.WaiterProc < y.WaiterProc
}
